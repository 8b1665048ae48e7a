package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"time"

	heapgossip "repro"
	"repro/internal/stream"
	"repro/internal/wire"
)

// workloads maps each workload name to its runner.
var workloads = map[string]func(r *report, seed int64, budget time.Duration, traced bool) error{
	"paper-ms691":  simWorkload(paperConfig),
	"xl-wan":       simWorkload(xlConfig),
	"udp-loopback": runUDP,
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	return strings.Join(names, "|")
}

// paperWindows sets the paper workload's stream length: long enough that a
// run does several seconds of steady-state work, short enough for several
// runs per measurement.
const paperWindows = 40

// paperConfig is the paper's experiment (§3.1): 270 nodes, HEAP over
// full-membership views on the ms-691 capability mix. Every parameter is
// spelled out, at the value the zero Scenario would select, because the
// benchmark's own assembly reads them directly.
func paperConfig(seed int64) heapgossip.Scenario {
	return heapgossip.Scenario{
		Name:           "paper-ms691",
		Nodes:          270,
		Protocol:       heapgossip.HEAP,
		Dist:           heapgossip.MS691,
		Fanout:         7,
		MaxFanout:      64,
		Windows:        paperWindows,
		Geometry:       heapgossip.PaperGeometry(),
		Seed:           seed,
		StreamStart:    5 * time.Second,
		Drain:          60 * time.Second,
		GossipPeriod:   200 * time.Millisecond,
		RetPeriod:      5 * time.Second,
		RetMaxAttempts: 2,
		AggPeriod:      200 * time.Millisecond,
		AggFanout:      1,
		AggFreshestK:   10,
		LossRate:       0.001,
		LatencyMin:     10 * time.Millisecond,
		LatencyMax:     100 * time.Millisecond,
		LatencyJitter:  5 * time.Millisecond,
		SourceCapKbps:  10_000,
		PSSViewSize:    24,
		Shards:         1,
	}
}

// xlNodes is the xl-wan system size.
const xlNodes = 10_000

// xlConfig is LargeScaleXL at 10k nodes with one shard per core, embedded in
// the wan3 topology under the bursty netem profile, with the flat fanout
// (split fanout needs full views). The stream starts after 5 s instead of
// LargeScaleXL's 2 s: by then the capped aggregation tables have converged,
// so HEAP's fanouts, and with them the run's lags, no longer hinge on how
// far each seed's estimates got in the first two seconds. Defaults are
// spelled out as in paperConfig.
func xlConfig(seed int64) heapgossip.Scenario {
	c := heapgossip.LargeScaleXL(xlNodes, seed, runtime.NumCPU())
	c.StreamStart = 5 * time.Second
	tc, err := heapgossip.TopologyProfile("wan3")
	if err != nil {
		panic(err) // stock profile
	}
	ne, err := heapgossip.NetemProfile("bursty")
	if err != nil {
		panic(err) // stock profile
	}
	c.Name = "xl-wan"
	c.Topology = &tc
	c.Netem = &ne
	c.MaxFanout = 64
	c.Geometry = heapgossip.PaperGeometry()
	c.GossipPeriod = 200 * time.Millisecond
	c.RetPeriod = 5 * time.Second
	c.RetMaxAttempts = 2
	c.AggPeriod = 200 * time.Millisecond
	c.AggFanout = 1
	c.AggFreshestK = 10
	c.LossRate = 0.001
	c.LatencyMin = 10 * time.Millisecond
	c.LatencyMax = 100 * time.Millisecond
	c.LatencyJitter = 5 * time.Millisecond
	c.SourceCapKbps = 10_000
	c.PSSViewSize = 24
	return c
}

// setupReps is how many times a run times its set-up; setup_s is the median.
// The first one or two set-ups in a fresh process run up to twice as slow,
// and with nine samples they moved the median by up to a third.
const setupReps = 21

// minRuns is the fewest measured repetitions a run makes, however long they
// take, so every median has several samples.
const minRuns = 3

// subSeeds is how many distinct scenarios an end-to-end run measures. Their
// seeds derive from the run's seed; the viewer-side metrics pool all of
// them, which averages out how much a single dissemination depends on its
// seed, and repetitions cycle through them so every scenario measured again
// must reproduce its first run exactly.
const subSeeds = 3

// simWorkload runs a simulated workload: end-to-end through RunScenario, or
// the traced per-layer run.
func simWorkload(config func(int64) heapgossip.Scenario) func(*report, int64, time.Duration, bool) error {
	return func(r *report, seed int64, budget time.Duration, traced bool) error {
		if traced {
			// One traced pass per run, whatever the budget: the reference,
			// the plain assembly and the traced one each run once.
			return simTraced(r, config(seed))
		}
		configs := make([]heapgossip.Scenario, subSeeds)
		for i := range configs {
			configs[i] = config(seed*subSeeds + int64(i))
		}
		return simEndToEnd(r, configs, budget)
	}
}

// simEndToEnd times the benchmark's untraced assembly (setup_s) and then
// runs RunScenario, the public entry point, over the scenarios in turn
// until the budget is spent.
func simEndToEnd(r *report, configs []heapgossip.Scenario, budget time.Duration) error {
	setup := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		t0 := time.Now()
		if _, err := assemble(configs[i%len(configs)], nil); err != nil {
			return err
		}
		setup = append(setup, time.Since(t0).Seconds())
	}
	r.set("setup_s", "s", median(setup), len(setup))

	var wall, heap, cpu []float64
	var firsts []*simFingerprint
	var runs []*heapgossip.Run
	start := time.Now()
	for i := 0; i < minRuns || time.Since(start) < budget; i++ {
		cfg := configs[i%len(configs)]
		runtime.GC()
		hs := startHeapSampler()
		c0 := cpuTime()
		t0 := time.Now()
		res, err := heapgossip.RunScenario(cfg)
		elapsed := time.Since(t0)
		c := cpuTime() - c0
		peak := hs.finish()
		if err != nil {
			return fmt.Errorf("RunScenario: %w", err)
		}
		r.attempted++
		fp := resultFingerprint(res)
		if i < len(configs) {
			firsts = append(firsts, fp)
			runs = append(runs, res.Run)
			checkExactlyOnce(r, res, fp)
		} else {
			first := firsts[i%len(configs)]
			r.check(fp.equal(first), "seed %d: run %d differs from the seed's first run: %s", cfg.Seed, i+1, fp.diff(first))
		}
		wall = append(wall, elapsed.Seconds())
		heap = append(heap, peak)
		cpu = append(cpu, float64(c.Microseconds())/float64(fp.deliveredPairs()))
	}
	fmt.Printf("# run_s samples: %.3f\n", wall)
	r.set("run_s", "s", median(wall), len(wall))
	r.set("peak_heap_mb", "MB", median(heap), len(heap))
	r.set("cpu_us_per_pkt", "us", median(cpu), len(cpu))
	setQuality(r, deliveryQuality(runs...))
	return nil
}

// simFingerprint is what the determinism and equivalence checks compare:
// events, messages, bytes by kind and per-node delivery counts.
type simFingerprint struct {
	events, msgs int64
	bytesByKind  [16]int64
	delivered    []int
}

func resultFingerprint(res *heapgossip.ScenarioResult) *simFingerprint {
	fp := &simFingerprint{events: res.NetStats.EventsProcessed, msgs: res.NetStats.MsgsSent}
	for i := range res.NodeNetStats {
		for k, b := range res.NodeNetStats[i].SentByKind {
			fp.bytesByKind[k] += b
		}
	}
	for i := range res.Run.Nodes {
		got := 0
		for _, at := range res.Run.Nodes[i].Recv {
			if at != stream.NotReceived {
				got++
			}
		}
		fp.delivered = append(fp.delivered, got)
	}
	return fp
}

func (a *assembly) fingerprint() *simFingerprint {
	st := a.net.Stats()
	fp := &simFingerprint{events: st.EventsProcessed, msgs: st.MsgsSent}
	for i, rcv := range a.receivers {
		ns := a.net.NodeStats(wire.NodeID(i))
		for k, b := range ns.SentByKind {
			fp.bytesByKind[k] += b
		}
		fp.delivered = append(fp.delivered, rcv.Received())
	}
	return fp
}

func (f *simFingerprint) equal(g *simFingerprint) bool { return f.diff(g) == "" }

// diff names the first difference between two fingerprints ("" if none).
func (f *simFingerprint) diff(g *simFingerprint) string {
	switch {
	case f.events != g.events:
		return fmt.Sprintf("events %d vs %d", f.events, g.events)
	case f.msgs != g.msgs:
		return fmt.Sprintf("messages %d vs %d", f.msgs, g.msgs)
	case f.bytesByKind != g.bytesByKind:
		return fmt.Sprintf("bytes by kind %v vs %v", f.bytesByKind, g.bytesByKind)
	case len(f.delivered) != len(g.delivered):
		return fmt.Sprintf("%d vs %d nodes", len(f.delivered), len(g.delivered))
	}
	for i := range f.delivered {
		if f.delivered[i] != g.delivered[i] {
			return fmt.Sprintf("node %d delivered %d vs %d", i, f.delivered[i], g.delivered[i])
		}
	}
	return ""
}

// deliveredPairs counts (receiver, packet) deliveries, the source excluded.
func (f *simFingerprint) deliveredPairs() int {
	n := 0
	for _, d := range f.delivered[1:] {
		n += d
	}
	return n
}

// checkExactlyOnce checks that every node's application saw each delivered
// packet exactly once: the receiver's distinct count equals the engine's
// delivery count.
func checkExactlyOnce(r *report, res *heapgossip.ScenarioResult, fp *simFingerprint) {
	for i, got := range fp.delivered {
		if want := res.CoreStats[i].EventsDelivered; int64(got) != want {
			r.check(false, "node %d: receiver saw %d packets, engine delivered %d", i, got, want)
			return
		}
	}
}

// jitterLag is the playback lag of the paper's jitter-free share (§3.4).
const jitterLag = 20 * time.Second

// deliveryQuality computes the viewer-side metrics over the receivers of
// the given runs pooled: delivery and jitter-free shares, per-packet lag
// percentiles, and each node's stream lag — the lag by which it has 99% of
// the source packets (§3.2) — as percentiles over nodes, a node that never
// gets there counting as infinitely late.
func deliveryQuality(runs ...*heapgossip.Run) map[string]float64 {
	var pairs, delivered int
	var jitterFree float64
	var nodes int
	var packetLags, nodeLags []float64
	for _, run := range runs {
		for i := range run.Nodes {
			n := &run.Nodes[i]
			if n.Excluded {
				continue
			}
			nodes++
			jitterFree += run.JitterFreeShare(n, jitterLag)
			for id := range n.Recv {
				pairs++
				if lag := run.Lag(n, id); lag != heapgossip.Never {
					delivered++
					packetLags = append(packetLags, float64(lag)/float64(time.Millisecond))
				}
			}
			lag := run.LagForDeliveryRatio(n, 0.99)
			v := math.Inf(1)
			if lag != heapgossip.Never {
				v = lag.Seconds()
			}
			nodeLags = append(nodeLags, v)
		}
	}
	return map[string]float64{
		"pairs":           float64(pairs),
		"nodes":           float64(nodes),
		"delivered":       float64(delivered),
		"delivered_pct":   100 * float64(delivered) / float64(pairs),
		"jitter_free_pct": 100 * jitterFree / float64(nodes),
		"lag_p50_ms":      percentile(packetLags, 50),
		"lag_p99_ms":      percentile(packetLags, 99),
		"node_lag_p50_s":  percentile(nodeLags, 50),
		"node_lag_p75_s":  percentile(nodeLags, 75),
	}
}

// setQuality reports the viewer-side metrics; they are computed over every
// (receiver, packet) pair, or every receiver for the per-node lags.
func setQuality(r *report, q map[string]float64) {
	pairs, nodes := int(q["pairs"]), int(q["nodes"])
	r.set("delivered_pct", "%", q["delivered_pct"], pairs)
	r.set("jitter_free_pct", "%", q["jitter_free_pct"], nodes)
	r.set("lag_p50_ms", "ms", q["lag_p50_ms"], int(q["delivered"]))
	r.set("lag_p99_ms", "ms", q["lag_p99_ms"], int(q["delivered"]))
	r.set("node_lag_p50_s", "s", q["node_lag_p50_s"], nodes)
	r.set("node_lag_p75_s", "s", q["node_lag_p75_s"], nodes)
	fmt.Printf("# miss_pct %.4f %% of %d (receiver, packet) pairs\n", 100-q["delivered_pct"], pairs)
}
