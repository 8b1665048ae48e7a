package core

import (
	"math/rand"
	"sort"
	"testing"
	"time"

	"repro/internal/env"
	"repro/internal/membership"
	"repro/internal/misbehave"
	"repro/internal/wire"
)

// clockRuntime is a single-node env.Runtime over a manual clock: timers fire
// in deadline order as advance moves time forward, and sends are counted per
// destination and kind.
type clockRuntime struct {
	now    time.Duration
	rng    *rand.Rand
	timers []clockTimer
	sent   map[wire.NodeID]map[wire.Kind]int
}

type clockTimer struct {
	at time.Duration
	fn func()
}

func newClockRuntime(seed int64) *clockRuntime {
	return &clockRuntime{rng: rand.New(rand.NewSource(seed)), sent: map[wire.NodeID]map[wire.Kind]int{}}
}

func (r *clockRuntime) ID() wire.NodeID    { return 0 }
func (r *clockRuntime) Now() time.Duration { return r.now }
func (r *clockRuntime) Rand() *rand.Rand   { return r.rng }

func (r *clockRuntime) Send(to wire.NodeID, m wire.Message) {
	if r.sent[to] == nil {
		r.sent[to] = map[wire.Kind]int{}
	}
	r.sent[to][m.Kind()]++
}

func (r *clockRuntime) After(d time.Duration, fn func()) env.Timer {
	r.AfterFunc(d, fn)
	return nil
}

func (r *clockRuntime) AfterFunc(d time.Duration, fn func()) {
	r.timers = append(r.timers, clockTimer{at: r.now + d, fn: fn})
}

// advance fires every timer due at or before to, earliest first.
func (r *clockRuntime) advance(to time.Duration) {
	for {
		sort.SliceStable(r.timers, func(i, j int) bool { return r.timers[i].at < r.timers[j].at })
		if len(r.timers) == 0 || r.timers[0].at > to {
			break
		}
		t := r.timers[0]
		r.timers = r.timers[1:]
		r.now = t.at
		t.fn()
	}
	r.now = to
}

// TestSplitDrawsSkipQuarantined pins quarantine on the hierarchical draw
// path: an engine splitting its fanout across a two-cluster view, whose
// detector holds one intra-cluster and one inter-cluster peer quarantined,
// never proposes to either over 200 rounds — while both clusters keep
// receiving proposals.
func TestSplitDrawsSkipQuarantined(t *testing.T) {
	const peers = 40
	clusterOf := func(id wire.NodeID) int { return int(id) % 2 }
	ids := make([]wire.NodeID, peers)
	for i := range ids {
		ids[i] = wire.NodeID(i)
	}
	view := membership.NewClusterView(0, ids, clusterOf)
	det := misbehave.MustNew(misbehave.Config{}) // observe-only: verdicts are manual
	intraQ, interQ := wire.NodeID(2), wire.NodeID(3)
	det.Quarantine(intraQ, 0)
	det.Quarantine(interQ, 0)
	eng, err := New(Config{
		Fanout:      7,
		FanoutIntra: 5,
		FanoutInter: 2,
		Sampler:     &misbehave.QuarantineSampler{Inner: view, Detector: det},
		Monitor:     det,
	})
	if err != nil {
		t.Fatal(err)
	}
	rt := newClockRuntime(5)
	eng.Start(rt)
	const period = 200 * time.Millisecond
	for round := 0; round < 200; round++ {
		eng.Publish(wire.Event{ID: wire.PacketID(round), Payload: []byte{1}})
		rt.advance(time.Duration(round+1) * period)
	}
	for _, q := range []wire.NodeID{intraQ, interQ} {
		if n := rt.sent[q][wire.KindPropose]; n != 0 {
			t.Errorf("quarantined peer %d (cluster %d) received %d proposes", q, clusterOf(q), n)
		}
	}
	var perCluster [2]int
	for to, kinds := range rt.sent {
		perCluster[clusterOf(to)] += kinds[wire.KindPropose]
	}
	if perCluster[0] == 0 || perCluster[1] == 0 {
		t.Fatalf("proposes per cluster %v: the split draw did not reach both sides", perCluster)
	}
}
