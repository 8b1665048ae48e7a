// Package aggregation implements the gossip-based aggregation protocol of
// HEAP (Algorithm 2 of the paper): every node periodically gossips the
// freshest upload-capability values it knows, merges what it receives by
// freshness, and maintains a running estimate of the system-wide average
// capability. The ratio between a node's own capability and that estimate
// drives HEAP's fanout adaptation:
//
//	f_i = fbar · b_i / bbar
//
// The paper reports the protocol gossips the 10 freshest capabilities every
// 200 ms at a cost of about 1 KB/s (§3.1), which corresponds to one
// aggregation partner per round; the fanout of the aggregation gossip is
// configurable here (AggFanout).
//
// The package also provides Averager, a Jelasity-style push-pull averaging
// protocol usable for continuous system-size estimation — the paper invokes
// this possibility ([13], §2.2) but assumes n is known; we implement it as
// an extension.
package aggregation

import (
	"time"

	"repro/internal/env"
	"repro/internal/membership"
	"repro/internal/wire"
)

// Config parameterizes the capability estimator.
type Config struct {
	// SelfCapKbps is this node's advertised upload capability. The paper
	// assumes it is either user-provided or measured at join time (§2.2).
	SelfCapKbps uint32
	// Period is the aggregation gossip period. Default 200 ms (§3.1).
	Period time.Duration
	// Fanout is how many peers receive each aggregation message. Default 1,
	// which matches the paper's ~1 KB/s budget.
	Fanout int
	// FreshestK is how many entries each message carries. Default 10 (§3.1).
	FreshestK int
	// EntryTTL ages out capability entries so that crashed nodes stop
	// biasing the average. Default 15 s.
	EntryTTL time.Duration
	// Sampler provides the random peers to gossip with.
	Sampler membership.Sampler
	// Exclude, when non-nil, rejects capability claims owned by the given
	// node: its entries are dropped on merge and purged on the tick path.
	// This is the misbehavior detector's fanout penalty — a quarantined
	// peer's (possibly inflated) claim leaves bbar, handing its stolen
	// fanout share back to honest nodes. Applied to the claim's owner,
	// regardless of which peer relayed it; relaying resumes on release.
	Exclude func(wire.NodeID) bool
	// TrackLimit, when > 0, tracks capability entries only for node ids
	// below the limit. At million-node scale a node's table of present
	// entries, the tick's scans over it and its dense by-id index all grow
	// with n, making the whole system O(n²); a track limit caps each at
	// O(limit) per node. Because node ids carry no capability bias (caps
	// are assigned by seeded rng, not by id), the tracked prefix is an
	// unbiased sample and bbar converges to the same system average. A node
	// whose own id is outside the limit still knows its own capability
	// exactly — the estimate simply comes entirely from the sampled prefix.
	// Zero means track everything.
	TrackLimit int
}

func (c *Config) applyDefaults() {
	if c.Period == 0 {
		c.Period = 200 * time.Millisecond
	}
	if c.Fanout == 0 {
		c.Fanout = 1
	}
	if c.FreshestK == 0 {
		c.FreshestK = 10
	}
	if c.EntryTTL == 0 {
		c.EntryTTL = 15 * time.Second
	}
}

// capEntry is one known capability claim: owner, value, and the local-clock
// time the value was measured at its owner.
type capEntry struct {
	id      wire.NodeID
	capKbps uint32
	asOf    time.Duration
}

// fresher is the freshness order: newer first, smaller id on ties — a strict
// total order, so the k freshest entries and their order are unique.
func fresher(a, b capEntry) bool {
	if a.asOf != b.asOf {
		return a.asOf > b.asOf
	}
	return a.id < b.id
}

// Estimator is the per-node capability aggregation service. It implements
// env.Handler for wire.Aggregate messages. Not safe for concurrent use; all
// access happens on the node's execution context.
//
// The present entries live unordered in one compact slice, found by id
// through a dense index (4 bytes per id up to the largest tracked one). The
// running sum is kept incrementally, so merging a received message is
// O(entries in the message) and reading the estimate is O(1). The tick path
// scans the present entries twice, once to age out and purge, once to pick
// the freshest k. A node holds only entries it heard of within EntryTTL
// (at most about FreshestK·EntryTTL/Period of them at one message per
// period), which bounds both scans whatever the system size.
type Estimator struct {
	cfg Config
	rt  env.Runtime

	entries []capEntry // present entries, unordered
	slot    []int32    // by node id: 1 + index into entries, 0 when absent
	sum     uint64     // sum of present capKbps

	ticker *env.Ticker

	// cached estimate, refreshed on every mutation
	estimateKbps float64

	// selScratch is freshest's sorted top-k, reused across ticks;
	// peerScratch the per-tick sampling buffer.
	selScratch  []capEntry
	peerScratch []wire.NodeID

	// MessagesSent counts aggregation messages (for overhead accounting).
	MessagesSent int
}

// maxTrackedNodeID bounds the dense by-id index against hostile wire input:
// node ids are dense, so a million-node ceiling is far beyond any deployment
// this codebase targets while capping what one datagram can make us allocate.
const maxTrackedNodeID = 1 << 20

var _ env.Handler = (*Estimator)(nil)

// NewEstimator builds an Estimator. The sampler must not be nil.
func NewEstimator(cfg Config) *Estimator {
	cfg.applyDefaults()
	if cfg.Sampler == nil {
		panic("aggregation: nil sampler")
	}
	if cfg.SelfCapKbps == 0 {
		panic("aggregation: zero self capability")
	}
	return &Estimator{
		cfg:          cfg,
		estimateKbps: float64(cfg.SelfCapKbps),
	}
}

// tracked reports whether entries for id are kept at all. With no
// TrackLimit every valid id is tracked.
func (e *Estimator) tracked(id wire.NodeID) bool {
	return e.cfg.TrackLimit <= 0 || int(id) < e.cfg.TrackLimit
}

// find returns the present entry for id, or nil.
func (e *Estimator) find(id wire.NodeID) *capEntry {
	if int(id) < len(e.slot) && e.slot[id] > 0 {
		return &e.entries[e.slot[id]-1]
	}
	return nil
}

// set inserts or replaces the entry for id, keeping sum current. Callers
// gate on tracked(id).
func (e *Estimator) set(id wire.NodeID, capKbps uint32, asOf time.Duration) {
	if cur := e.find(id); cur != nil {
		e.sum += uint64(capKbps) - uint64(cur.capKbps)
		cur.capKbps, cur.asOf = capKbps, asOf
		return
	}
	if n := int(id) + 1; n > len(e.slot) {
		e.slot = append(e.slot, make([]int32, n-len(e.slot))...)
	}
	e.entries = append(e.entries, capEntry{id, capKbps, asOf})
	e.slot[id] = int32(len(e.entries))
	e.sum += uint64(capKbps)
}

// drop removes the entry at index i of entries, moving the last entry into
// its place and keeping sum current.
func (e *Estimator) drop(i int) {
	gone := e.entries[i]
	e.sum -= uint64(gone.capKbps)
	e.slot[gone.id] = 0
	last := len(e.entries) - 1
	if i != last {
		e.entries[i] = e.entries[last]
		e.slot[e.entries[i].id] = int32(i + 1)
	}
	e.entries = e.entries[:last]
}

// Start implements env.Handler.
func (e *Estimator) Start(rt env.Runtime) {
	e.rt = rt
	if e.tracked(rt.ID()) {
		e.set(rt.ID(), e.cfg.SelfCapKbps, rt.Now())
	}
	e.recompute()
	phase := time.Duration(rt.Rand().Int63n(int64(e.cfg.Period)))
	e.ticker = env.NewTicker(rt, phase, e.cfg.Period, e.tick)
}

// Stop implements env.Handler.
func (e *Estimator) Stop() {
	if e.ticker != nil {
		e.ticker.Stop()
	}
}

func (e *Estimator) tick() {
	now := e.rt.Now()
	// Refresh own entry: it is always the freshest thing we know.
	if e.tracked(e.rt.ID()) {
		e.set(e.rt.ID(), e.cfg.SelfCapKbps, now)
	}
	e.prune(now)
	e.recompute()

	fresh := e.freshest(e.cfg.FreshestK, now)
	if len(fresh) == 0 {
		return
	}
	e.peerScratch = e.cfg.Sampler.AppendPeers(e.peerScratch[:0], e.rt.Rand(), e.cfg.Fanout)
	for _, p := range e.peerScratch {
		// Each recipient gets its own message value, but entry slices are
		// shared; receivers must not mutate (env contract).
		e.rt.Send(p, &wire.Aggregate{Entries: fresh})
		e.MessagesSent++
	}
}

// Receive implements env.Handler, merging entries by freshness. Merging is
// O(len(msg)); aging out stale entries stays on the tick path.
func (e *Estimator) Receive(_ wire.NodeID, m wire.Message) {
	agg, ok := m.(*wire.Aggregate)
	if !ok {
		return
	}
	now := e.rt.Now()
	for _, entry := range agg.Entries {
		if entry.Node == e.rt.ID() || entry.Node < 0 || entry.Node >= maxTrackedNodeID {
			// Own value is always freshest; negative or absurdly large ids
			// are hostile/corrupt wire input (ids are dense, and the dense
			// index must not grow unboundedly on a peer's say-so).
			continue
		}
		if !e.tracked(entry.Node) {
			continue // outside the sampled prefix, see Config.TrackLimit
		}
		if e.cfg.Exclude != nil && e.cfg.Exclude(entry.Node) {
			continue // quarantined claim owner, see Config.Exclude
		}
		asOf := now - time.Duration(entry.AgeMs)*time.Millisecond
		if cur := e.find(entry.Node); cur != nil && cur.asOf >= asOf {
			continue // ours is fresher
		}
		e.set(entry.Node, entry.CapKbps, asOf)
	}
	e.recompute()
}

// SetSelfCapKbps rewrites the node's advertised capability mid-run (netem
// capability traces, measured-capacity drift). The new value takes effect
// locally at once and reaches peers through the normal freshness gossip —
// exactly how the paper expects re-measured capabilities to propagate.
// Panics on zero, like NewEstimator.
func (e *Estimator) SetSelfCapKbps(kbps uint32) {
	if kbps == 0 {
		panic("aggregation: zero self capability")
	}
	e.cfg.SelfCapKbps = kbps
	if e.rt != nil {
		if e.tracked(e.rt.ID()) {
			e.set(e.rt.ID(), kbps, e.rt.Now())
		}
		e.recompute()
	}
}

// EstimateKbps returns the current estimate of the system-wide average
// upload capability (bbar), in kbps. Before any exchange it equals the
// node's own capability.
func (e *Estimator) EstimateKbps() float64 { return e.estimateKbps }

// RelativeCapability returns b_i / bbar, the fanout multiplier of HEAP.
func (e *Estimator) RelativeCapability() float64 {
	if e.estimateKbps <= 0 {
		return 1
	}
	return float64(e.cfg.SelfCapKbps) / e.estimateKbps
}

// KnownNodes returns how many nodes currently contribute to the estimate.
func (e *Estimator) KnownNodes() int { return len(e.entries) }

// prune drops every entry, except the node's own, that is older than
// EntryTTL or whose owner Exclude rejects (quarantined since it was merged,
// see Config.Exclude). It walks backward so each swapped-in entry has
// already been checked.
func (e *Estimator) prune(now time.Duration) {
	self := e.rt.ID()
	for i := len(e.entries) - 1; i >= 0; i-- {
		en := e.entries[i]
		if en.id == self {
			continue
		}
		if now-en.asOf > e.cfg.EntryTTL || (e.cfg.Exclude != nil && e.cfg.Exclude(en.id)) {
			e.drop(i)
		}
	}
}

func (e *Estimator) recompute() {
	if len(e.entries) == 0 {
		e.estimateKbps = float64(e.cfg.SelfCapKbps)
		return
	}
	// sum is maintained with integer arithmetic, so the estimate is
	// independent of merge order — whole-system runs stay bit-reproducible.
	e.estimateKbps = float64(e.sum) / float64(len(e.entries))
}

// freshest returns up to k entries with the most recent asOf, in fresher
// order, encoded with their current age. One pass keeps a sorted top-k in
// reusable scratch; only the returned slice is freshly allocated (it escapes
// into the outgoing message).
func (e *Estimator) freshest(k int, now time.Duration) []wire.CapEntry {
	k = min(k, len(e.entries))
	if k <= 0 {
		return nil
	}
	best := e.selScratch[:0]
	for _, en := range e.entries {
		j := len(best) // where en goes if it is fresher than everything kept
		if j < k {
			best = append(best, en)
		} else if fresher(en, best[j-1]) {
			j-- // evict the stalest kept entry
		} else {
			continue
		}
		for ; j > 0 && fresher(en, best[j-1]); j-- {
			best[j] = best[j-1]
		}
		best[j] = en
	}
	out := make([]wire.CapEntry, len(best))
	for i, b := range best {
		age := now - b.asOf
		if age < 0 {
			age = 0
		}
		out[i] = wire.CapEntry{
			Node:    b.id,
			CapKbps: b.capKbps,
			AgeMs:   uint32(age / time.Millisecond),
		}
	}
	e.selScratch = best[:0]
	return out
}
