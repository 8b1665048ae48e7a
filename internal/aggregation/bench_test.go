package aggregation

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/env"
	"repro/internal/wire"
)

// benchRuntime is a bare env.Runtime whose clock the benchmark moves by
// hand. Timers never fire (ticks are driven by calling tick directly) and
// sends are discarded.
type benchRuntime struct {
	id  wire.NodeID
	now time.Duration
	rng *rand.Rand
}

func (r *benchRuntime) ID() wire.NodeID                       { return r.id }
func (r *benchRuntime) Now() time.Duration                    { return r.now }
func (r *benchRuntime) Send(wire.NodeID, wire.Message)        {}
func (r *benchRuntime) After(time.Duration, func()) env.Timer { return benchTimer{} }
func (r *benchRuntime) AfterFunc(time.Duration, func())       {}
func (r *benchRuntime) Rand() *rand.Rand                      { return r.rng }

type benchTimer struct{}

func (benchTimer) Stop() bool { return false }

// benchShapes are the table shapes of the benchmark workloads: paper-ms691's
// 270 fully tracked nodes, and xl-wan's 10k-node id space behind
// TrackLimit 256, where most nodes, this one included, sit outside the limit
// and messages carry only tracked ids.
type benchShape struct {
	name       string
	msgIDs     int // messages carry ids in [0, msgIDs)
	self       wire.NodeID
	trackLimit int
}

var benchShapes = []benchShape{
	{"paper-270", 270, 0, 0},
	{"xl-10k-track256", 256, 5_000, 256},
}

// benchMessages returns a bank of 10-entry Aggregates over ids [0, ids),
// with ages up to 3 s.
func benchMessages(ids int) []*wire.Aggregate {
	rng := rand.New(rand.NewSource(1))
	msgs := make([]*wire.Aggregate, 1024)
	for i := range msgs {
		m := &wire.Aggregate{Entries: make([]wire.CapEntry, 10)}
		for j := range m.Entries {
			m.Entries[j] = wire.CapEntry{
				Node:    wire.NodeID(rng.Intn(ids)),
				CapKbps: 512 + uint32(rng.Intn(2500)),
				AgeMs:   uint32(rng.Intn(3000)),
			}
		}
		msgs[i] = m
	}
	return msgs
}

// benchEstimator builds a started estimator on a benchRuntime and warms its
// table up with a simulated minute of one merge and one tick per period.
func benchEstimator(s benchShape, msgs []*wire.Aggregate) (*Estimator, *benchRuntime) {
	rt := &benchRuntime{id: s.self, rng: rand.New(rand.NewSource(2))}
	e := NewEstimator(Config{SelfCapKbps: 768, Sampler: fixedPeers{1}, TrackLimit: s.trackLimit})
	e.Start(rt)
	for i := 0; i < 300; i++ {
		rt.now += e.cfg.Period
		e.Receive(1, msgs[i%len(msgs)])
		e.tick()
	}
	return e, rt
}

// BenchmarkEstimatorReceive merges one 10-entry Aggregate per op, the clock
// moving 1 ms between merges so a share of each message's entries is fresher
// than the table's.
func BenchmarkEstimatorReceive(b *testing.B) {
	for _, s := range benchShapes {
		b.Run(s.name, func(b *testing.B) {
			msgs := benchMessages(s.msgIDs)
			e, rt := benchEstimator(s, msgs)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rt.now += time.Millisecond
				e.Receive(1, msgs[i%len(msgs)])
			}
			b.ReportMetric(float64(e.KnownNodes()), "entries")
		})
	}
}

// BenchmarkEstimatorTick runs one aggregation tick per op: refresh the own
// entry, age out and purge, select the freshest k and send. One merge per
// period keeps the table at its steady-state size; it is timed with the
// tick, as a node's period holds both.
func BenchmarkEstimatorTick(b *testing.B) {
	for _, s := range benchShapes {
		b.Run(s.name, func(b *testing.B) {
			msgs := benchMessages(s.msgIDs)
			e, rt := benchEstimator(s, msgs)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rt.now += e.cfg.Period
				e.Receive(1, msgs[i%len(msgs)])
				e.tick()
			}
			b.ReportMetric(float64(e.KnownNodes()), "entries")
		})
	}
}
