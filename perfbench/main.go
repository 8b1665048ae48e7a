// Command perfbench is the repository's benchmark: it runs one workload for
// a fixed time, checks the program's outputs, and prints every metric by
// name, unit and sample count, ending with one JSON result line.
//
//	perfbench -workload paper-ms691 -seed 1 -seconds 30 -trace 0
//
// Workloads: paper-ms691 (the paper's experiment through
// heapgossip.RunScenario), xl-wan (10k nodes, sharded, clustered WAN, bursty
// loss) and udp-loopback (16 heapgossip.StartNode nodes on 127.0.0.1). With
// -trace 0 it reports end-to-end metrics from the public entry points; with
// -trace 1 it reports per-layer metrics from a separate traced run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one reported value with its unit and the number of samples its
// value summarizes.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	samples int
}

// report collects a run's metrics, its operation counts and its failed
// correctness checks.
type report struct {
	metrics   map[string]metric
	attempted int
	failed    int
	problems  []string
}

// endToEnd lists the metrics a user of the system sees; every workload's
// untraced run reports all of them.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"run_s", "s"},
	{"peak_heap_mb", "MB"},
	{"cpu_us_per_pkt", "us"},
	{"delivered_pct", "%"},
	{"jitter_free_pct", "%"},
	{"lag_p50_ms", "ms"},
	{"lag_p99_ms", "ms"},
	{"node_lag_p50_s", "s"},
	{"node_lag_p75_s", "s"},
}

func newReport() *report { return &report{metrics: make(map[string]metric)} }

func (r *report) set(name, unit string, value float64, samples int) {
	r.metrics[name] = metric{Value: value, Unit: unit, samples: samples}
}

// check records a failed correctness check when ok is false.
func (r *report) check(ok bool, format string, args ...any) {
	if !ok {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func main() {
	workload := flag.String("workload", "", "workload name: paper-ms691, xl-wan or udp-loopback")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 30, "measurement time in seconds")
	trace := flag.Int("trace", 0, "0 for end-to-end metrics, 1 for the traced per-layer run")
	flag.Parse()

	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload %s, -seconds > 0 and -trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	fmt.Printf("# perfbench workload=%s seed=%d seconds=%d trace=%d\n", *workload, *seed, *seconds, *trace)
	fmt.Printf("# machine nproc=%d GOMAXPROCS=%d go=%s commit=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit())

	r := newReport()
	if err := run(r, *seed, time.Duration(*seconds)*time.Second, *trace == 1); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	printTable(r)
	// The result carries exactly the mode's metric set.
	want := endToEnd
	if *trace == 1 {
		want = perLayer
	}
	result := make(map[string]metric, len(want))
	for _, m := range want {
		v, ok := r.metrics[m.name]
		r.check(ok && v.Unit == m.unit, "metric %s (%s) not reported", m.name, m.unit)
		r.check(!math.IsInf(v.Value, 0) && !math.IsNaN(v.Value), "metric %s is %v", m.name, v.Value)
		if ok && (math.IsInf(v.Value, 0) || math.IsNaN(v.Value)) {
			v.Value = 0 // unencodable; the failed check above reports it
		}
		result[m.name] = metric{Value: v.Value, Unit: m.unit}
	}
	for _, p := range r.problems {
		fmt.Printf("# CHECK FAILED: %s\n", p)
	}

	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(r.problems) == 0, r.attempted, r.failed, result}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func printTable(r *report) {
	names := make([]string, 0, len(r.metrics))
	for name := range r.metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("# %-34s %16s  %-6s %s\n", "metric", "value", "unit", "samples")
	for _, name := range names {
		m := r.metrics[name]
		fmt.Printf("# %-34s %16.6g  %-6s %d\n", name, m.Value, m.Unit, m.samples)
	}
}

// commit names the source revision when the benchmark runs from the root of
// a git checkout with a loose ref, and "unknown" otherwise. It reads the
// files directly, so nothing outside the checkout is consulted.
func commit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	if name, ok := strings.CutPrefix(ref, "ref: "); ok {
		b, err := os.ReadFile(filepath.Join(".git", filepath.FromSlash(name)))
		if err != nil {
			return "unknown"
		}
		ref = strings.TrimSpace(string(b))
	}
	if len(ref) > 12 {
		ref = ref[:12]
	}
	return ref
}
