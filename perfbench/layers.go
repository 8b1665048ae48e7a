package main

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"

	heapgossip "repro"
	"repro/internal/wire"
)

// perLayer lists every per-layer metric with its unit. Every traced run
// reports all of them; a metric of a layer the workload bypasses reads 0.
var perLayer = []struct{ name, unit string }{
	{"simnet.events", "count"},
	{"simnet.self_s", "s"},
	{"simnet.ns_per_event", "ns"},
	{"simnet.shard_busy_max_s", "s"},
	{"simnet.outside_spans_frac", "ratio"},
	{"core.propose.n", "count"},
	{"core.propose.self_s", "s"},
	{"core.request.n", "count"},
	{"core.request.self_s", "s"},
	{"core.serve.n", "count"},
	{"core.serve.self_s", "s"},
	{"core.timer.n", "count"},
	{"core.timer.self_s", "s"},
	{"core.publish.n", "count"},
	{"core.publish.self_s", "s"},
	{"core.useful_serve_ratio", "ratio"},
	{"core.retransmissions", "count"},
	{"core.giveups", "count"},
	{"aggregation.receive.n", "count"},
	{"aggregation.receive.self_s", "s"},
	{"aggregation.tick.n", "count"},
	{"aggregation.tick.self_s", "s"},
	{"aggregation.bbar_err_pct", "%"},
	{"membership.draw.n", "count"},
	{"membership.draw.self_s", "s"},
	{"membership.shuffle.n", "count"},
	{"membership.shuffle.self_s", "s"},
	{"stream.source.n", "count"},
	{"stream.source.self_s", "s"},
	{"stream.deliver.n", "count"},
	{"stream.deliver.self_s", "s"},
	{"stream.source_late_ms", "ms"},
	{"netem.judge.n", "count"},
	{"netem.judge.self_s", "s"},
	{"netem.dropped", "count"},
	{"netem.delayed", "count"},
	{"topo.latency.n", "count"},
	{"topo.latency.self_s", "s"},
	{"wire.bytes.propose", "MB"},
	{"wire.bytes.request", "MB"},
	{"wire.bytes.serve", "MB"},
	{"wire.bytes.aggregate", "MB"},
	{"wire.bytes.shuffle", "MB"},
	{"wire.overhead_ratio", "ratio"},
	{"wire.bytes_per_datagram", "B"},
	{"ratelimit.backlog_p99_ms", "ms"},
	{"ratelimit.tail_dropped", "count"},
	{"udpnet.datagrams_out", "count"},
	{"udpnet.decode_errors", "count"},
	{"telemetry.scrape.n", "count"},
	{"telemetry.scrape.self_s", "s"},
	{"gc.allocs", "count"},
	{"gc.alloc_mb", "MB"},
	{"gc.cycles", "count"},
	{"gc.pause_s", "s"},
	{"trace.overhead_s", "s"},
	{"share.simnet_pct", "%"},
	{"share.core_pct", "%"},
	{"share.aggregation_pct", "%"},
	{"share.membership_pct", "%"},
	{"share.stream_pct", "%"},
	{"share.netem_pct", "%"},
	{"share.topo_pct", "%"},
}

// layerNames are the simulated layers whose self-time shares the traced run
// reports, in output order.
var layerNames = []string{"simnet", "core", "aggregation", "membership", "stream", "netem", "topo"}

// layerOf returns the layer a span's self time is charged to.
func layerOf(s spanName) string {
	name := spanNames[s]
	return name[:strings.IndexByte(name, '.')]
}

// setLayerDefaults reports every per-layer metric as 0, to be overwritten
// by the ones the workload exercises.
func setLayerDefaults(r *report) {
	for _, m := range perLayer {
		r.set(m.name, m.unit, 0, 0)
	}
}

// setSpans reports each span's call count and self time.
func setSpans(r *report, tot spanTotals) {
	for s := spanName(0); s < numSpanNames; s++ {
		name := spanNames[s]
		if layerOf(s) == "simnet" {
			continue // charged to simnet.self_s
		}
		n := int(tot.count[s])
		r.set(name+".n", "count", float64(tot.count[s]), n)
		r.set(name+".self_s", "s", tot.self[s].Seconds(), n)
	}
}

// simLayerMetrics derives the simulated layers' metrics from one traced run
// of the assembly: its span totals, the wall time of its event loop, and the
// layers' own counters.
func simLayerMetrics(r *report, a *assembly, tot spanTotals, runWall time.Duration) {
	setSpans(r, tot)
	shards := a.net.NumShards()
	capacity := time.Duration(shards) * runWall // shard-seconds available

	// simnet's self time: its own spans (send, pairwise latency) plus every
	// shard-second no layer span covers — event dispatch, heap upkeep,
	// exchange barriers and waiting for the slowest shard.
	var inLayers time.Duration
	layerSelf := make(map[string]time.Duration)
	for s := spanName(0); s < numSpanNames; s++ {
		layerSelf[layerOf(s)] += tot.self[s]
		if layerOf(s) != "simnet" {
			inLayers += tot.self[s]
		}
	}
	// The share of shard-seconds outside every layer span: simnet's own
	// dispatch, heap and barrier work plus any wait for the slowest shard.
	// simnet does not expose its barrier wait, so this is not idle time.
	var busy, busyMax time.Duration
	var outside float64
	for _, b := range tot.busy {
		busy += b
		busyMax = max(busyMax, b)
		outside += float64(runWall-b) / float64(runWall)
		r.check(b <= runWall, "a shard's spans cover %v of a %v run", b, runWall)
	}
	simnetSelf := capacity - inLayers
	layerSelf["simnet"] = simnetSelf
	events := a.net.Stats().EventsProcessed
	r.set("simnet.events", "count", float64(events), 1)
	r.set("simnet.self_s", "s", simnetSelf.Seconds(), 1)
	r.set("simnet.shard_busy_max_s", "s", busyMax.Seconds(), shards)
	r.set("simnet.outside_spans_frac", "ratio", outside/float64(shards), shards)

	fmt.Printf("# where the time goes (self time, share of %d shard(s) x %.3fs traced event loop):\n", shards, runWall.Seconds())
	var sum time.Duration
	for _, l := range layerNames {
		r.set("share."+l+"_pct", "%", 100*layerSelf[l].Seconds()/capacity.Seconds(), 1)
		fmt.Printf("#   %-12s %8.3fs %6.2f%%\n", l, layerSelf[l].Seconds(), 100*layerSelf[l].Seconds()/capacity.Seconds())
		sum += layerSelf[l]
	}
	fmt.Printf("#   %-12s %8.3fs (= shards x traced event-loop wall)\n", "sum", sum.Seconds())
	// Self times partition the top-level spans exactly: a mismatch means a
	// span closed out of order or was charged to the wrong parent.
	var spanSelf time.Duration
	for _, d := range tot.self {
		spanSelf += d
	}
	r.check(spanSelf == busy, "span self times sum to %v, top-level spans to %v", spanSelf, busy)

	// core: the useful share of served events, and retransmission work.
	var delivered, dup, ret, giveups int64
	for _, eng := range a.engines {
		st := eng.Stats()
		delivered += st.EventsDelivered
		dup += st.DuplicateEvents
		ret += st.Retransmissions
		giveups += st.GiveUps
	}
	r.set("core.useful_serve_ratio", "ratio", float64(delivered)/float64(delivered+dup), int(delivered+dup))
	r.set("core.retransmissions", "count", float64(ret), 1)
	r.set("core.giveups", "count", float64(giveups), 1)

	// aggregation: each estimate's error against the mean capability of the
	// nodes it averages (every node but the source).
	var capSum float64
	for _, c := range a.caps[1:] {
		capSum += float64(c)
	}
	trueMean := capSum / float64(len(a.caps)-1)
	var errSum float64
	var estimates int
	for _, est := range a.estimators {
		if est != nil {
			errSum += math.Abs(est.EstimateKbps()-trueMean) / trueMean
			estimates++
		}
	}
	r.set("aggregation.bbar_err_pct", "%", 100*errSum/float64(estimates), estimates)

	if a.netem != nil {
		var dropped, delayed int64
		for _, st := range a.netem.Stats() {
			dropped += st.Drops
			delayed += st.Delayed
		}
		r.set("netem.dropped", "count", float64(dropped), 1)
		r.set("netem.delayed", "count", float64(delayed), 1)
	}

	// wire: bytes by message kind, datagram overhead included.
	var byKind [16]int64
	var msgs int64
	for i := range a.engines {
		ns := a.net.NodeStats(wire.NodeID(i))
		for k, b := range ns.SentByKind {
			byKind[k] += b
		}
		msgs += ns.SentMsgs
	}
	setWireBytes(r, byKind, msgs)
	nodes := float64(len(a.engines))
	fmt.Printf("# bytes per node by kind: propose %.0f request %.0f serve %.0f aggregate %.0f shuffle %.0f\n",
		float64(byKind[wire.KindPropose])/nodes, float64(byKind[wire.KindRequest])/nodes,
		float64(byKind[wire.KindServe])/nodes, float64(byKind[wire.KindAggregate])/nodes,
		float64(byKind[wire.KindShuffleReq]+byKind[wire.KindShuffleReply])/nodes)
}

// setWireBytes reports bytes by message kind, the control overhead against
// served payload, and the mean datagram size.
func setWireBytes(r *report, byKind [16]int64, datagrams int64) {
	mb := func(b int64) float64 { return float64(b) / 1e6 }
	shuffle := byKind[wire.KindShuffleReq] + byKind[wire.KindShuffleReply]
	r.set("wire.bytes.propose", "MB", mb(byKind[wire.KindPropose]), 1)
	r.set("wire.bytes.request", "MB", mb(byKind[wire.KindRequest]), 1)
	r.set("wire.bytes.serve", "MB", mb(byKind[wire.KindServe]), 1)
	r.set("wire.bytes.aggregate", "MB", mb(byKind[wire.KindAggregate]), 1)
	r.set("wire.bytes.shuffle", "MB", mb(shuffle), 1)
	var total int64
	for _, b := range byKind {
		total += b
	}
	serve := byKind[wire.KindServe]
	if serve > 0 {
		r.set("wire.overhead_ratio", "ratio", float64(total-serve)/float64(serve), 1)
	}
	if datagrams > 0 {
		r.set("wire.bytes_per_datagram", "B", float64(total)/float64(datagrams), int(datagrams))
	}
	fmt.Printf("# wire.overhead_ratio %.4f (non-serve bytes / serve bytes)\n", float64(total-serve)/float64(max(serve, 1)))
}

// setGC reports the Go runtime's allocation and collection work.
func setGC(r *report, gc gcCounters) {
	r.set("gc.allocs", "count", float64(gc.allocs), 1)
	r.set("gc.alloc_mb", "MB", float64(gc.allocBytes)/(1<<20), 1)
	r.set("gc.cycles", "count", float64(gc.cycles), 1)
	r.set("gc.pause_s", "s", gc.pause.Seconds(), int(gc.cycles))
}

// simTraced is the per-layer run of a simulated workload. It runs
// RunScenario once as the reference, then the benchmark's assembly without
// wrappers (the equivalence gate: it must reproduce the reference exactly,
// or the trace would measure a different program) and with them (which must
// reproduce it too: tracing only observes). Event-loop walls are timed from
// after assembly returns; tracing overhead is the traced event loop's wall
// minus the plain one's.
func simTraced(r *report, cfg heapgossip.Scenario) error {
	setLayerDefaults(r)
	t0 := time.Now()
	res, err := heapgossip.RunScenario(cfg)
	if err != nil {
		return err
	}
	untraced := time.Since(t0)
	ref := resultFingerprint(res)
	r.attempted++

	runtime.GC()
	gc0 := readGC()
	plain, err := assemble(cfg, nil)
	if err != nil {
		return err
	}
	t0 = time.Now()
	plain.run()
	plainWall := time.Since(t0)
	setGC(r, readGC().sub(gc0))
	fp := plain.fingerprint()
	r.attempted++
	r.check(fp.equal(ref), "equivalence gate: the untraced assembly differs from RunScenario: %s", fp.diff(ref))
	r.set("simnet.ns_per_event", "ns", float64(plainWall.Nanoseconds())/float64(fp.events), 1)

	runtime.GC()
	tr := newTracer(cfg.Nodes)
	traced, err := assemble(cfg, tr)
	if err != nil {
		return err
	}
	t0 = time.Now()
	traced.run()
	runWall := time.Since(t0)
	r.attempted++
	tfp := traced.fingerprint()
	r.check(tfp.equal(ref), "the traced assembly differs from RunScenario: %s", tfp.diff(ref))
	tot := tr.totals(traced.net.NumShards())
	simLayerMetrics(r, traced, tot, runWall)
	// Bypass predictions: a layer the scenario does not configure does no
	// work.
	r.check(cfg.Netem != nil || tot.count[spNetemJudge] == 0, "netem judged %d datagrams without a netem profile", tot.count[spNetemJudge])
	r.check(cfg.Topology != nil || tot.count[spTopoLatency] == 0, "topo answered %d latency lookups without a topology", tot.count[spTopoLatency])
	r.check(cfg.UsePSS || tot.count[spMemShuffle] == 0, "Cyclon ran %d shuffle steps with full views", tot.count[spMemShuffle])
	r.set("trace.overhead_s", "s", (runWall - plainWall).Seconds(), 1)
	fmt.Printf("# tracing overhead: traced event loop %.3fs - untraced %.3fs = %.3fs (RunScenario, assembly included, %.3fs)\n",
		runWall.Seconds(), plainWall.Seconds(), (runWall - plainWall).Seconds(), untraced.Seconds())
	return nil
}
