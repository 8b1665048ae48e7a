package aggregation

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	"repro/internal/env"
	"repro/internal/simnet"
	"repro/internal/wire"
)

// fixedPeers is a sampler that always returns the same peers.
type fixedPeers []wire.NodeID

func (p fixedPeers) AppendPeers(dst []wire.NodeID, _ *rand.Rand, _ int) []wire.NodeID {
	return append(dst, p...)
}
func (p fixedPeers) SelectPeers(_ *rand.Rand, _ int) []wire.NodeID {
	return append([]wire.NodeID(nil), p...)
}
func (p fixedPeers) PeerCount() int { return len(p) }

// sentAggregate is one Aggregate as a recorder node received it.
type sentAggregate struct {
	at      time.Duration
	entries []wire.CapEntry
}

// aggRecorder is a node that keeps every Aggregate it receives.
type aggRecorder struct {
	rt   env.Runtime
	msgs []sentAggregate
}

func (r *aggRecorder) Start(rt env.Runtime) { r.rt = rt }
func (r *aggRecorder) Stop()                {}
func (r *aggRecorder) Receive(_ wire.NodeID, m wire.Message) {
	if agg, ok := m.(*wire.Aggregate); ok {
		r.msgs = append(r.msgs, sentAggregate{r.rt.Now(), append([]wire.CapEntry(nil), agg.Entries...)})
	}
}

type oracleEntry struct {
	capKbps uint32
	asOf    time.Duration
}

// capOracle is the estimator's specification as a brute-force map: merge by
// freshness, age out and exclude on the tick, send the k freshest under
// (asOf desc, id asc).
type capOracle struct {
	self       wire.NodeID
	selfCap    uint32
	k          int
	ttl        time.Duration
	trackLimit int
	exclude    func(wire.NodeID) bool
	m          map[wire.NodeID]oracleEntry

	// expired, excluded and full count aged-out entries, quarantine purges
	// and sends cut to k, so the test can tell it exercised each rule.
	expired, excluded, full int
}

func (o *capOracle) tracked(id wire.NodeID) bool {
	return o.trackLimit <= 0 || int(id) < o.trackLimit
}

func (o *capOracle) setSelf(now time.Duration) {
	if o.tracked(o.self) {
		o.m[o.self] = oracleEntry{o.selfCap, now}
	}
}

func (o *capOracle) receive(now time.Duration, entries []wire.CapEntry) {
	for _, en := range entries {
		id := en.Node
		if id == o.self || id < 0 || id >= maxTrackedNodeID || !o.tracked(id) {
			continue
		}
		if o.exclude != nil && o.exclude(id) {
			continue
		}
		asOf := now - time.Duration(en.AgeMs)*time.Millisecond
		if cur, ok := o.m[id]; ok && cur.asOf >= asOf {
			continue
		}
		o.m[id] = oracleEntry{en.CapKbps, asOf}
	}
}

// tick returns what the node sends, nil when it knows nothing.
func (o *capOracle) tick(now time.Duration) []wire.CapEntry {
	o.setSelf(now)
	for id, en := range o.m {
		if id == o.self {
			continue
		}
		if now-en.asOf > o.ttl {
			o.expired++
			delete(o.m, id)
		} else if o.exclude != nil && o.exclude(id) {
			o.excluded++
			delete(o.m, id)
		}
	}
	ids := make([]wire.NodeID, 0, len(o.m))
	for id := range o.m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		a, b := o.m[ids[i]], o.m[ids[j]]
		if a.asOf != b.asOf {
			return a.asOf > b.asOf
		}
		return ids[i] < ids[j]
	})
	if len(ids) > o.k {
		ids = ids[:o.k]
		o.full++
	}
	var out []wire.CapEntry
	for _, id := range ids {
		age := now - o.m[id].asOf
		out = append(out, wire.CapEntry{Node: id, CapKbps: o.m[id].capKbps, AgeMs: uint32(age / time.Millisecond)})
	}
	return out
}

func (o *capOracle) estimate() float64 {
	if len(o.m) == 0 {
		return float64(o.selfCap)
	}
	var sum uint64
	for _, en := range o.m {
		sum += uint64(en.capKbps)
	}
	return float64(sum) / float64(len(o.m))
}

// oracleID draws a claim owner: mostly a small id space (self included), and
// now and then an id beyond the track limit, a negative id, an id past the
// hostile-input bound, or the largest id that bound admits.
func oracleID(rng *rand.Rand, trackLimit int) wire.NodeID {
	switch r := rng.Intn(100); {
	case r < 80:
		return wire.NodeID(rng.Intn(64))
	case r < 88 && trackLimit > 0:
		return wire.NodeID(trackLimit + rng.Intn(100))
	case r < 92:
		return wire.NodeID(-1 - rng.Intn(3))
	case r < 96:
		return []wire.NodeID{maxTrackedNodeID, maxTrackedNodeID + 7, math.MaxInt32}[rng.Intn(3)]
	default:
		return maxTrackedNodeID - 1 - wire.NodeID(rng.Intn(2))
	}
}

// oracleAgeMs draws a claim age: mostly recent, sometimes past EntryTTL,
// sometimes absurd.
func oracleAgeMs(rng *rand.Rand, ttl time.Duration) uint32 {
	switch r := rng.Intn(100); {
	case r < 75:
		return uint32(rng.Int63n(int64(ttl / time.Millisecond)))
	case r < 95:
		return uint32(rng.Int63n(int64(3 * ttl / time.Millisecond)))
	default:
		return math.MaxUint32 - uint32(rng.Intn(10))
	}
}

// TestEstimatorMatchesOracle drives one estimator through seeded random
// receives, capability changes, clock advances and ticks, and checks after
// every step that its estimate, its known-node count and every Aggregate it
// sent equal a brute-force map model's.
func TestEstimatorMatchesOracle(t *testing.T) {
	cases := []struct {
		name       string
		trackLimit int
		exclude    bool
	}{
		{"plain", 0, false},
		{"exclude", 0, true},
		{"tracklimit", 40, false},
		{"tracklimit-exclude", 40, true},
	}
	steps := 1500
	if testing.Short() {
		steps = 400
	}
	for ci, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			const (
				self   = wire.NodeID(3)
				period = 200 * time.Millisecond
				ttl    = 3 * time.Second
				k      = 5
			)
			rng := rand.New(rand.NewSource(int64(100 + ci)))
			excluded := map[wire.NodeID]bool{}
			var exclude func(wire.NodeID) bool
			if tc.exclude {
				exclude = func(id wire.NodeID) bool { return excluded[id] }
			}
			net := simnet.New(simnet.Config{Seed: int64(ci + 1)})
			rec := &aggRecorder{}
			net.AddNode(rec, simnet.NodeConfig{})
			for i := 1; i < int(self); i++ {
				net.AddNode(&aggRecorder{}, simnet.NodeConfig{})
			}
			e := NewEstimator(Config{
				SelfCapKbps: 700, Period: period, FreshestK: k, EntryTTL: ttl,
				Sampler: fixedPeers{0}, Exclude: exclude, TrackLimit: tc.trackLimit,
			})
			if id := net.AddNode(e, simnet.NodeConfig{}); id != self {
				t.Fatalf("estimator got id %d, want %d", id, self)
			}
			o := &capOracle{
				self: self, selfCap: 700, k: k, ttl: ttl,
				trackLimit: tc.trackLimit, exclude: exclude,
				m: map[wire.NodeID]oracleEntry{},
			}
			o.setSelf(0)

			// The ticker's phase is the node's own draw: learn it from the
			// first send, then replay the same grid in the model.
			net.Run(period - 1)
			if len(rec.msgs) != 1 {
				t.Fatalf("%d sends in the first period, want 1", len(rec.msgs))
			}
			phase := rec.msgs[0].at
			nextTick := phase
			var want []sentAggregate
			advance := func(to time.Duration) {
				for ; nextTick <= to; nextTick += period {
					if out := o.tick(nextTick); out != nil {
						want = append(want, sentAggregate{nextTick, out})
					}
				}
				if to > net.Now() {
					net.Run(to)
				}
			}
			advance(net.Now())

			for step := 0; step < steps; step++ {
				now := net.Now()
				switch r := rng.Intn(100); {
				case r < 45:
					msg := &wire.Aggregate{}
					for n := 1 + rng.Intn(12); n > 0; n-- {
						age := oracleAgeMs(rng, ttl)
						// On a clock aligned to the tick grid, sometimes send an
						// age that is exactly EntryTTL old at one of the next ticks.
						gap := nextTick + time.Duration(rng.Intn(4))*period - now
						if rng.Intn(4) == 0 && gap%time.Millisecond == 0 && gap <= ttl {
							age = uint32((ttl - gap) / time.Millisecond)
						}
						msg.Entries = append(msg.Entries, wire.CapEntry{
							Node:    oracleID(rng, tc.trackLimit),
							CapKbps: 1 + uint32(rng.Intn(5000)),
							AgeMs:   age,
						})
					}
					e.Receive(wire.NodeID(rng.Intn(int(self))), msg)
					o.receive(now, msg.Entries)
				case r < 52:
					c := 1 + uint32(rng.Intn(5000))
					e.SetSelfCapKbps(c)
					o.selfCap = c
					o.setSelf(now)
				case r < 62:
					id := wire.NodeID(rng.Intn(64))
					excluded[id] = !excluded[id]
				default:
					d := time.Duration(1+rng.Intn(700_000)) * time.Microsecond
					if rng.Intn(10) == 0 {
						d = ttl + time.Duration(rng.Intn(int(2*ttl/time.Microsecond)))*time.Microsecond
					}
					to := now + d
					if aligned := to - (to-phase)%time.Millisecond; rng.Intn(2) == 0 && aligned > now {
						to = aligned // whole milliseconds after a tick
					}
					if (to-phase)%period == 0 {
						to += time.Millisecond // keep receives off tick instants
					}
					advance(to)
				}

				if got, w := e.KnownNodes(), len(o.m); got != w {
					t.Fatalf("step %d: KnownNodes %d, oracle %d", step, got, w)
				}
				if got, w := e.EstimateKbps(), o.estimate(); got != w {
					t.Fatalf("step %d: EstimateKbps %v, oracle %v", step, got, w)
				}
				if len(rec.msgs) != len(want) {
					t.Fatalf("step %d: %d sends, oracle %d", step, len(rec.msgs), len(want))
				}
				for i := range want {
					g, w := rec.msgs[i], want[i]
					if g.at != w.at || len(g.entries) != len(w.entries) {
						t.Fatalf("step %d: send %d at %v with %d entries, oracle at %v with %d",
							step, i, g.at, len(g.entries), w.at, len(w.entries))
					}
					for j := range w.entries {
						if g.entries[j] != w.entries[j] {
							t.Fatalf("step %d: send %d entry %d = %+v, oracle %+v", step, i, j, g.entries[j], w.entries[j])
						}
					}
				}
				rec.msgs, want = rec.msgs[:0], want[:0]
			}
			if o.expired == 0 || o.full == 0 || (tc.exclude && o.excluded == 0) {
				t.Fatalf("vacuous run: %d expired, %d excluded, %d sends cut to k", o.expired, o.excluded, o.full)
			}
			t.Logf("%d expired, %d excluded, %d sends cut to k", o.expired, o.excluded, o.full)
		})
	}
}
