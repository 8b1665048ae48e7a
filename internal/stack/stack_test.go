package stack

import (
	"math/rand"
	"sort"
	"testing"
	"time"

	"repro/internal/aggregation"
	"repro/internal/core"
	"repro/internal/env"
	"repro/internal/membership"
	"repro/internal/misbehave"
	"repro/internal/stream"
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

func (r *clockRuntime) count(to wire.NodeID, k wire.Kind) int { return r.sent[to][k] }

// TestBuildWiresDetectorHooks builds a HEAP source node with a detector and
// split fanout over a two-cluster view, quarantines one peer per cluster,
// and checks all three hook points hold: the split gossip draw and the
// aggregation draw never target the quarantined peers, and the estimator
// drops their capability claims.
func TestBuildWiresDetectorHooks(t *testing.T) {
	ids := make([]wire.NodeID, 30)
	for i := range ids {
		ids[i] = wire.NodeID(i)
	}
	clusterOf := func(id wire.NodeID) int { return int(id) % 2 }
	geom := stream.PaperGeometry()
	st, err := Build(Spec{
		ID:             0,
		Engine:         core.Config{Fanout: 7, FanoutIntra: 4, FanoutInter: 2},
		AdvertisedKbps: 1000,
		Aggregation:    &aggregation.Config{Fanout: 3},
		Detector:       &misbehave.Config{},
		Streams: []Stream{{Local: true, SourceConfig: stream.SourceConfig{
			Geometry: geom, Windows: 2, StartAt: time.Second,
		}}},
	}, Substrate{Membership: membership.NewClusterView(0, ids, clusterOf)})
	if err != nil {
		t.Fatal(err)
	}
	if st.Engine == nil || st.Estimator == nil || st.Detector == nil || len(st.Sources) != 1 {
		t.Fatalf("missing layers: %+v", st)
	}
	quarantined := []wire.NodeID{2, 3}
	for _, q := range quarantined {
		st.Detector.Quarantine(q, 0)
	}
	rt := newClockRuntime(11)
	st.Mux.Start(rt)
	rt.advance(19 * time.Second)
	st.Mux.Receive(4, &wire.Aggregate{Entries: []wire.CapEntry{{Node: 2, CapKbps: 50_000}}})
	rt.advance(20 * time.Second)
	if !st.Sources[0].Done {
		t.Fatal("source did not finish")
	}
	for _, q := range quarantined {
		if n := rt.count(q, wire.KindPropose) + rt.count(q, wire.KindAggregate); n != 0 {
			t.Errorf("quarantined peer %d was sent %d proposes/aggregates", q, n)
		}
	}
	if got := st.Estimator.EstimateKbps(); got != 1000 {
		t.Errorf("estimate %v kbps: a quarantined peer's claim entered bbar", got)
	}
	var proposes [2]int
	for to := range rt.sent {
		proposes[clusterOf(to)] += rt.count(to, wire.KindPropose)
	}
	if proposes[0] == 0 || proposes[1] == 0 {
		t.Fatalf("proposes per cluster %v: the split draw did not reach both sides", proposes)
	}
}

// TestBuildRejectsSplitWithoutSplitDraw checks core's one-time split check
// surfaces through Build: split fanout over a sampler with no split draw
// (Cyclon) is a configuration error.
func TestBuildRejectsSplitWithoutSplitDraw(t *testing.T) {
	_, err := Build(Spec{Engine: core.Config{Fanout: 7, FanoutIntra: 3}},
		Substrate{Membership: membership.NewCyclon(membership.CyclonConfig{}, []wire.NodeID{1, 2})})
	if err == nil {
		t.Fatal("split fanout over Cyclon built without error")
	}
}

// TestOpenOnBuiltStack opens a second local stream after Build: the source
// publishes into the engine and OnDone fires with its stream id.
func TestOpenOnBuiltStack(t *testing.T) {
	var done []wire.StreamID
	st, err := Build(Spec{Engine: core.Config{Fanout: 3}},
		Substrate{Membership: membership.NewView(0, []wire.NodeID{1, 2, 3}), OnDone: func(id wire.StreamID) { done = append(done, id) }})
	if err != nil {
		t.Fatal(err)
	}
	rt := newClockRuntime(1)
	st.Mux.Start(rt)
	src, err := st.Open(Stream{Local: true, SourceConfig: stream.SourceConfig{Stream: 7, Geometry: stream.PaperGeometry(), Windows: 1}})
	if err != nil {
		t.Fatal(err)
	}
	src.Start(rt)
	rt.advance(5 * time.Second)
	if !src.Done || len(done) != 1 || done[0] != 7 {
		t.Fatalf("source done %v, OnDone calls %v", src.Done, done)
	}
	if !st.Engine.StreamDelivered(7, 0) {
		t.Fatal("the opened stream's first packet never reached the engine")
	}
	if _, err := st.Open(Stream{Local: true, SourceConfig: stream.SourceConfig{Stream: 7, Geometry: stream.PaperGeometry(), Windows: 1}}); err == nil {
		t.Fatal("reopening a carried stream id succeeded")
	}
}
