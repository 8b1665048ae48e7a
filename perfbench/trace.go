package main

import (
	"math/rand"
	"time"

	"repro/internal/env"
	"repro/internal/membership"
	"repro/internal/netem"
	"repro/internal/simnet"
	"repro/internal/stream"
	"repro/internal/wire"
)

// spanName labels one kind of span; its prefix up to the first dot names the
// layer the span's self time is charged to.
type spanName uint8

const (
	spSimnetSend spanName = iota
	spSimnetLatency
	spTopoLatency
	spNetemJudge
	spCorePropose
	spCoreRequest
	spCoreServe
	spCoreTimer
	spCorePublish
	spAggReceive
	spAggTick
	spMemDraw
	spMemShuffle
	spStreamSource
	spStreamDeliver
	spTelemetryScrape
	numSpanNames
)

var spanNames = [numSpanNames]string{
	spSimnetSend:      "simnet.send",
	spSimnetLatency:   "simnet.latency",
	spTopoLatency:     "topo.latency",
	spNetemJudge:      "netem.judge",
	spCorePropose:     "core.propose",
	spCoreRequest:     "core.request",
	spCoreServe:       "core.serve",
	spCoreTimer:       "core.timer",
	spCorePublish:     "core.publish",
	spAggReceive:      "aggregation.receive",
	spAggTick:         "aggregation.tick",
	spMemDraw:         "membership.draw",
	spMemShuffle:      "membership.shuffle",
	spStreamSource:    "stream.source",
	spStreamDeliver:   "stream.deliver",
	spTelemetryScrape: "telemetry.scrape",
}

// span is one recorded call into a layer: name, start and end (ns since the
// tracer's base), and the index of the enclosing span in the same node's
// buffer (-1 for a top-level span). The node is the buffer's owner.
type span struct {
	start, end int64
	parent     int32
	name       spanName
}

// foldAt is the buffer length past which a node's completed span trees are
// folded into its totals. It bounds span memory to a few KB per node, which
// matters at 10k nodes with millions of spans.
const foldAt = 128

// nodeTrace is one node's span buffer and folded totals. Only the node's own
// execution context touches it — a node's handlers never run concurrently,
// even when simulator shards do — so it needs no locking.
type nodeTrace struct {
	buf  []span
	open int32 // innermost open span, -1 when none

	count [numSpanNames]int64
	self  [numSpanNames]int64 // ns
	busy  int64               // ns inside top-level spans
}

// tracer records spans into per-node buffers.
type tracer struct {
	base  time.Time
	nodes []nodeTrace
}

func newTracer(nodes int) *tracer {
	t := &tracer{base: time.Now(), nodes: make([]nodeTrace, nodes)}
	for i := range t.nodes {
		t.nodes[i].open = -1
	}
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// begin opens a span on node's buffer and returns its index.
func (t *tracer) begin(node wire.NodeID, name spanName) int32 {
	nt := &t.nodes[node]
	idx := int32(len(nt.buf))
	nt.buf = append(nt.buf, span{start: t.now(), parent: nt.open, name: name})
	nt.open = idx
	return idx
}

// end closes the span begin returned.
func (t *tracer) end(node wire.NodeID, idx int32) {
	now := t.now()
	nt := &t.nodes[node]
	s := &nt.buf[idx]
	s.end = now
	nt.open = s.parent
	if s.parent < 0 {
		nt.busy += now - s.start
		if len(nt.buf) >= foldAt {
			nt.fold()
		}
	}
}

// fold charges every buffered span's duration to its name and subtracts it
// from its parent's, leaving self times, then empties the buffer. Only call
// it with no span open.
func (nt *nodeTrace) fold() {
	for _, s := range nt.buf {
		d := s.end - s.start
		nt.count[s.name]++
		nt.self[s.name] += d
		if s.parent >= 0 {
			nt.self[nt.buf[s.parent].name] -= d
		}
	}
	nt.buf = nt.buf[:0]
}

// spanTotals is the trace folded across nodes.
type spanTotals struct {
	count [numSpanNames]int64
	self  [numSpanNames]time.Duration
	// busy is the time each shard's nodes spent inside top-level spans,
	// grouping nodes by id % shards like the simulator does.
	busy []time.Duration
}

func (t *tracer) totals(shards int) spanTotals {
	out := spanTotals{busy: make([]time.Duration, shards)}
	for i := range t.nodes {
		nt := &t.nodes[i]
		nt.fold()
		for k := range nt.count {
			out.count[k] += nt.count[k]
			out.self[k] += time.Duration(nt.self[k])
		}
		out.busy[i%shards] += time.Duration(nt.busy)
	}
	return out
}

// tracedHandler wraps one protocol handler: Receive becomes a span named by
// message kind, and the runtime handed to Start is wrapped so the handler's
// sends and timer callbacks are recorded too.
type tracedHandler struct {
	h     env.Handler
	t     *tracer
	node  wire.NodeID
	recv  func(wire.Kind) spanName
	timer spanName
}

func (w *tracedHandler) Start(rt env.Runtime) {
	w.h.Start(&tracedRuntime{Runtime: rt, t: w.t, node: w.node, timer: w.timer})
}

func (w *tracedHandler) Receive(from wire.NodeID, m wire.Message) {
	i := w.t.begin(w.node, w.recv(m.Kind()))
	w.h.Receive(from, m)
	w.t.end(w.node, i)
}

func (w *tracedHandler) Stop() { w.h.Stop() }

// tracedRuntime records Send as a simnet.send span and turns After/AfterFunc
// callbacks into spans labelled with the owning layer's timer name.
type tracedRuntime struct {
	env.Runtime
	t     *tracer
	node  wire.NodeID
	timer spanName
}

func (r *tracedRuntime) Send(to wire.NodeID, m wire.Message) {
	i := r.t.begin(r.node, spSimnetSend)
	r.Runtime.Send(to, m)
	r.t.end(r.node, i)
}

func (r *tracedRuntime) After(d time.Duration, fn func()) env.Timer {
	return r.Runtime.After(d, r.wrap(fn))
}

func (r *tracedRuntime) AfterFunc(d time.Duration, fn func()) {
	r.Runtime.AfterFunc(d, r.wrap(fn))
}

func (r *tracedRuntime) wrap(fn func()) func() {
	return func() {
		i := r.t.begin(r.node, r.timer)
		fn()
		r.t.end(r.node, i)
	}
}

// tracedSampler records every membership draw. It forwards the PeerAppender
// fast path, so callers take the same draw path (and rng draws) as without
// it.
type tracedSampler struct {
	inner interface {
		membership.Sampler
		membership.PeerAppender
	}
	t    *tracer
	node wire.NodeID
}

func (s *tracedSampler) SelectPeers(rng *rand.Rand, k int) []wire.NodeID {
	i := s.t.begin(s.node, spMemDraw)
	out := s.inner.SelectPeers(rng, k)
	s.t.end(s.node, i)
	return out
}

func (s *tracedSampler) AppendPeers(dst []wire.NodeID, rng *rand.Rand, k int) []wire.NodeID {
	i := s.t.begin(s.node, spMemDraw)
	out := s.inner.AppendPeers(dst, rng, k)
	s.t.end(s.node, i)
	return out
}

func (s *tracedSampler) PeerCount() int { return s.inner.PeerCount() }

// tracedPublisher records the source's hand-off into the engine.
type tracedPublisher struct {
	inner stream.Publisher
	t     *tracer
	node  wire.NodeID
}

func (p *tracedPublisher) Publish(ev wire.Event) {
	i := p.t.begin(p.node, spCorePublish)
	p.inner.Publish(ev)
	p.t.end(p.node, i)
}

// tracedLatency records latency lookups on the sender's buffer. It forwards
// MinLatency, the sharded simulator's lookahead.
type tracedLatency struct {
	inner simnet.LatencyModel
	t     *tracer
	name  spanName
}

func (l *tracedLatency) Latency(from, to wire.NodeID, stamp uint64) time.Duration {
	i := l.t.begin(from, l.name)
	d := l.inner.Latency(from, to, stamp)
	l.t.end(from, i)
	return d
}

func (l *tracedLatency) MinLatency() time.Duration { return l.inner.MinLatency() }

// tracedNetem records netem verdicts on the sender's buffer. It forwards
// Presize, which keeps per-sender chain growth out of parallel windows.
type tracedNetem struct {
	inner *netem.Engine
	t     *tracer
}

func (m *tracedNetem) Judge(from, to wire.NodeID, size int, now time.Duration, rng *rand.Rand) netem.Verdict {
	i := m.t.begin(from, spNetemJudge)
	v := m.inner.Judge(from, to, size, now, rng)
	m.t.end(from, i)
	return v
}

func (m *tracedNetem) Presize(n int) { m.inner.Presize(n) }
