package scenario

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/adapt"
	"repro/internal/churn"
	"repro/internal/misbehave"
	"repro/internal/netem"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/fingerprints.golden from the current code")

const goldenPath = "testdata/fingerprints.golden"

// goldenCase is one small run pinned by its fingerprint hash.
type goldenCase struct {
	name string
	cfg  func() Config
	// check guards against a vacuous pin: the branch the case exists for
	// must actually have engaged during the run.
	check func(*Result) error
}

// goldenArmedAdversary is the adversary mix the two armed cases share.
func goldenArmedAdversary() *AdversarySpec {
	return &AdversarySpec{
		FreeriderFraction: 0.1,
		DropperFraction:   0.05,
		LiarFraction:      0.05,
		Detect:            &misbehave.Config{},
	}
}

func quarantined(res *Result) error {
	if res.AdversaryStats == nil || res.AdversaryStats.QuarantineEvents == 0 {
		return fmt.Errorf("no quarantine happened")
	}
	return nil
}

// goldenCases covers every assembly branch of Run: each node-stack shape the
// scenario layer can wire, at ≤80 nodes and ≤3 windows.
func goldenCases() []goldenCase {
	return []goldenCase{
		{name: "heap", cfg: func() Config { return deterministicBase(41) }},
		{name: "standard", cfg: func() Config {
			c := deterministicBase(41)
			c.Protocol = StandardGossip
			return c
		}},
		{name: "tree", cfg: func() Config {
			c := deterministicBase(41)
			c.Protocol = StaticTree
			c.TreeCapacityOrder = true
			return c
		}},
		{name: "pss", cfg: func() Config {
			c := deterministicBase(41)
			c.UsePSS = true
			return c
		}},
		{name: "netem-captrace", cfg: func() Config {
			c := deterministicBase(19)
			c.Netem = &netem.Config{
				Name: "golden",
				GE:   &netem.GEParams{PGoodBad: 0.02, PBadGood: 0.25, LossGood: 0.001, LossBad: 0.3},
				Partitions: []netem.PartitionSpec{
					{From: 8 * time.Second, Until: 12 * time.Second, SplitFractions: []float64{0.3}},
				},
				Spikes: []netem.Spike{
					{At: 7 * time.Second, Duration: 4 * time.Second, Extra: 200 * time.Millisecond, Ramp: time.Second},
				},
				CapTraces: []netem.CapTraceSpec{
					{Fraction: 0.3, Steps: []netem.CapStep{
						{At: 6 * time.Second, Factor: 0.3},
						{At: 10 * time.Second, Factor: 1},
					}},
					{Fraction: 0.2, Silent: true, Steps: []netem.CapStep{
						{At: 7 * time.Second, Factor: 0.5},
					}},
				},
			}
			return c
		}},
		{name: "adapt", cfg: func() Config {
			c := deterministicBase(47)
			c.Dist = MS691
			c.DegradedFraction, c.DegradedFactor = 0.2, 0.35
			c.Adapt = &adapt.Config{}
			return c
		}, check: func(res *Result) error {
			if res.AdaptStats == nil || res.AdaptStats.Readvertisements == 0 {
				return fmt.Errorf("adaptation never engaged")
			}
			return nil
		}},
		{name: "adversary-armed", cfg: func() Config {
			c := deterministicBase(59)
			c.Dist = MS691
			c.Adversary = goldenArmedAdversary()
			return c
		}, check: quarantined},
		{name: "trace", cfg: func() Config { return traceBase(67) }},
		{name: "multisource", cfg: func() Config { return multiSourceBase(43) }},
		{name: "autofanout", cfg: func() Config {
			c := deterministicBase(41)
			c.AutoFanout = true
			return c
		}},
		{name: "sourcebias", cfg: func() Config {
			c := deterministicBase(41)
			c.SourceBias = true
			return c
		}},
		{name: "joinwaves-churn", cfg: func() Config {
			c := deterministicBase(7)
			c.Nodes = 60
			c.JoinWaves = []JoinWave{{At: 6 * time.Second, Count: 20}}
			c.ChurnBursts = []ChurnBurst{{At: 8 * time.Second, Fraction: 0.1}}
			c.Churn = &churn.Catastrophic{At: 9 * time.Second, Fraction: 0.1}
			return c
		}},
		{name: "topology-split", cfg: func() Config { return topologyBase(73) }},
		{name: "topology-split-adversary-armed", cfg: func() Config {
			c := topologyBase(73)
			c.Dist = MS691
			c.Adversary = goldenArmedAdversary()
			return c
		}, check: quarantined},
	}
}

// TestFingerprintGolden pins the exact results of one small run per assembly
// branch against hashes committed in testdata/fingerprints.golden. Unlike the
// repeated-run determinism tests, which compare a build against itself, this
// catches a refactor of node assembly or target selection that changes any
// rng draw or registration order. Floating-point results may differ on
// architectures whose compilers fuse multiply-adds, so the pin is amd64-only.
func TestFingerprintGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" && !*updateGolden {
		t.Skipf("golden fingerprints are pinned on amd64 (FMA fusion may change float results on %s)", runtime.GOARCH)
	}
	want := map[string]string{}
	if !*updateGolden {
		f, err := os.Open(goldenPath)
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			line := strings.TrimSpace(sc.Text())
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			name, sum, ok := strings.Cut(line, " ")
			if !ok {
				t.Fatalf("malformed golden line %q", line)
			}
			want[name] = sum
		}
		f.Close()
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
	}
	var out strings.Builder
	out.WriteString("# SHA-256 of fingerprint() per assembly branch; see TestFingerprintGolden.\n")
	for _, gc := range goldenCases() {
		res, err := Run(gc.cfg())
		if err != nil {
			t.Fatalf("%s: %v", gc.name, err)
		}
		if gc.check != nil {
			if err := gc.check(res); err != nil {
				t.Errorf("%s: %v", gc.name, err)
			}
		}
		sum := sha256.Sum256(fingerprint(t, res))
		got := hex.EncodeToString(sum[:])
		fmt.Fprintf(&out, "%s %s\n", gc.name, got)
		if *updateGolden {
			continue
		}
		if w, ok := want[gc.name]; !ok {
			t.Errorf("%s: no golden entry", gc.name)
		} else if w != got {
			t.Errorf("%s: fingerprint %s, golden %s", gc.name, got, w)
		}
		delete(want, gc.name)
	}
	for name := range want {
		t.Errorf("golden entry %s has no case", name)
	}
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
