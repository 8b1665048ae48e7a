package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	heapgossip "repro"
	"repro/internal/stream"
	"repro/internal/wire"
)

const (
	// udpNodes is the loopback deployment's size, source included.
	udpNodes = 16
	// udpStartDelay is the source's wait before its first packet: enough
	// for set-up and a few aggregation rounds.
	udpStartDelay = time.Second
	// udpDrain bounds the wait for stragglers after the last packet is due;
	// it exceeds the engine's 5 s retransmission timeout, so one lost serve
	// is recovered within it.
	udpDrain = 8 * time.Second
	// scrapePeriod is how often the operator scrapes every node's registry.
	scrapePeriod = time.Second
	// backlogPeriod is how often every node's send-queue backlog is sampled.
	backlogPeriod = 100 * time.Millisecond
	// udpSetupReps is how many more set-ups a run times after its session.
	// Each closed deployment holds ~33 MB until its timers fire.
	udpSetupReps = 9
)

// udpSession is one running loopback deployment and what its delivery
// callbacks record. Per-node slots are written only under that node's
// execution context and read after Close.
type udpSession struct {
	nodes   []*heapgossip.Node
	epoch   time.Time
	firstAt time.Duration // first packet's scheduled publish, since epoch
	geom    heapgossip.Geometry
	windows int

	receivers []*stream.Receiver
	calls     []int           // per node: delivery callbacks
	clamped   []int           // per node: deliveries whose reported lag was clamped to 0
	pubAt     []time.Duration // source: when each packet was published, since epoch
	lateMs    []float64       // source: publish time minus due time, per packet
	delivered atomic.Int64
	tr        *tracer // stream.deliver and telemetry.scrape spans; nil when untraced
}

// dueAt is packet id's scheduled publish instant, since the epoch.
func (s *udpSession) dueAt(id heapgossip.PacketID) time.Duration {
	return s.firstAt + s.geom.PublishOffset(id)
}

// startUDP starts the deployment: every node with the shared epoch, the
// source first, then the full peer wiring.
func startUDP(seed int64, windows int, tr *tracer) (*udpSession, error) {
	geom := heapgossip.PaperGeometry()
	total := geom.TotalPackets(windows)
	s := &udpSession{
		epoch: time.Now(), geom: geom, windows: windows, tr: tr,
		receivers: make([]*stream.Receiver, udpNodes),
		calls:     make([]int, udpNodes),
		clamped:   make([]int, udpNodes),
	}
	// The relays' capabilities are the paper's ms-691 mix, dealt by the
	// seed; the source has the simulator's 10 Mbps.
	caps := append([]uint32{10_000}, heapgossip.MS691.Assign(udpNodes-1, rand.New(rand.NewSource(seed)))...)
	for i := 0; i < udpNodes; i++ {
		id := heapgossip.NodeID(i)
		rcv, err := stream.NewReceiver(geom, windows, false)
		if err != nil {
			return nil, err
		}
		s.receivers[i] = rcv
		cfg := heapgossip.NodeConfig{
			ID:         id,
			UploadKbps: caps[i],
			// The relays run HEAP. The source keeps the fixed fanout, as
			// the simulator's broadcaster does: an adaptive 10 Mbps source
			// would propose to every relay and serve each one itself.
			Adaptive: i != 0,
			Seed:     seed<<8 | int64(i+1),
			Epoch:    s.epoch,
			OnDeliver: func(_ heapgossip.StreamID, pkt heapgossip.PacketID, _ []byte, lag time.Duration) {
				s.onDeliver(id, pkt, lag)
			},
		}
		if i == 0 {
			cfg.Source = &heapgossip.SourceConfig{Geometry: geom, Windows: windows, StartDelay: udpStartDelay}
			s.lateMs = make([]float64, 0, total)
			s.pubAt = make([]time.Duration, total)
			// The source's ticker starts inside StartNode; timing the
			// schedule from just before the call makes lateness an upper
			// bound by the call's own duration.
			s.firstAt = time.Since(s.epoch) + udpStartDelay
		}
		n, err := heapgossip.StartNode(cfg)
		if err != nil {
			s.close()
			return nil, err
		}
		s.nodes = append(s.nodes, n)
	}
	for i, n := range s.nodes {
		for j, m := range s.nodes {
			if i != j {
				n.AddPeer(heapgossip.NodeID(j), m.Addr())
			}
		}
	}
	return s, nil
}

// onDeliver runs in node's execution context for every delivered packet.
func (s *udpSession) onDeliver(node heapgossip.NodeID, id heapgossip.PacketID, lag time.Duration) {
	at := time.Since(s.epoch)
	if int(id) >= s.geom.TotalPackets(s.windows) {
		return
	}
	s.calls[node]++
	if node == 0 {
		// The source delivers to itself as it publishes.
		s.pubAt[id] = at
		s.lateMs = append(s.lateMs, float64(at-s.dueAt(id))/float64(time.Millisecond))
	} else {
		if lag <= 0 {
			s.clamped[node]++
		}
		s.delivered.Add(1)
	}
	var sp int32
	if s.tr != nil {
		sp = s.tr.begin(node, spStreamDeliver)
	}
	s.receivers[node].OnDeliver(wire.Event{ID: id}, at)
	if s.tr != nil {
		s.tr.end(node, sp)
	}
}

// coverage is how long a packet takes from its publish to its delivery at
// the last receiver that gets it, median over the stream's packets. It is
// how far the slowest receiver trails the source, so the session ends about
// this long after the last publish.
func (s *udpSession) coverage() time.Duration {
	last := make([]time.Duration, len(s.pubAt))
	for _, rcv := range s.receivers[1:] {
		for id, t := range rcv.Records() {
			if t != stream.NotReceived {
				last[id] = max(last[id], t)
			}
		}
	}
	var delays []float64
	for id, t := range last {
		if t > 0 {
			delays = append(delays, float64(t-s.pubAt[id]))
		}
	}
	return time.Duration(median(delays))
}

func (s *udpSession) close() {
	for _, n := range s.nodes {
		n.Close()
	}
}

// sessionOutcome is what the streamed session measured.
type sessionOutcome struct {
	setup, runS, peak, cpuUs float64
	run                      *heapgossip.Run
	lateMs, backlogMs        []float64
	gc                       gcCounters
	spans                    spanTotals
	datagrams, sentB         float64
	tailDropped, decode      float64
}

// runUDP measures the loopback deployment. It is an open loop: the source
// publishes on the stream's schedule however slowly the nodes keep up. Every
// lag is timed from the packet's publish instant on the shared epoch, the
// clock the nodes' own lag stamps use; how late the source ran against the
// schedule is reported separately as stream.source_late_ms. The session's
// wall time is fixed by the schedule, so run_s is the part of it the
// program sets: how long a packet takes to reach its last receiver.
// An operator scrapes every node's registry once a second and samples send
// backlogs every 100 ms in both modes; traced mode adds spans around the
// scrapes and the receivers' OnDeliver and reports per-layer metrics.
func runUDP(r *report, seed int64, budget time.Duration, traced bool) error {
	// One P: with more, the runtime's spinning threads add CPU that varies
	// from run to run, and cpu_us_per_pkt would measure that.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	geom := heapgossip.PaperGeometry()
	windows := int((budget - udpStartDelay - time.Second) / geom.WindowDuration())
	windows = max(windows, 1)
	o, err := streamSession(r, seed, windows, traced)
	if err != nil {
		return err
	}
	// The operations the open loop issues are the source's publishes;
	// deliveries are the outcome delivered_pct measures.
	total := geom.TotalPackets(windows)
	r.attempted = total
	r.failed = total - len(o.lateMs)

	// More set-up samples, from deployments that stream nothing. They come
	// after the session because a closed node stays reachable until its
	// pending timers fire — the engine's serve-buffer prune is 120 s out —
	// and would count in the session's heap. Each sample, like the session's,
	// starts after the free heap went back to the OS, so every one builds on
	// fresh pages; left to chance, some reused pages and ran faster.
	setup := []float64{o.setup}
	for i := 0; i < udpSetupReps; i++ {
		debug.FreeOSMemory()
		t0 := time.Now()
		s, err := startUDP(seed, windows, nil)
		if err != nil {
			return err
		}
		setup = append(setup, time.Since(t0).Seconds())
		s.close()
	}
	r.set("setup_s", "s", median(setup), len(setup))
	r.set("run_s", "s", o.runS, 1)
	r.set("peak_heap_mb", "MB", o.peak, 1)
	r.set("cpu_us_per_pkt", "us", o.cpuUs, 1)
	setQuality(r, deliveryQuality(o.run))
	if !traced {
		return nil
	}

	setLayerDefaults(r)
	setSpans(r, o.spans)
	setGC(r, o.gc)
	r.set("stream.source_late_ms", "ms", percentile(o.lateMs, 50), len(o.lateMs))
	r.set("ratelimit.backlog_p99_ms", "ms", percentile(o.backlogMs, 99), len(o.backlogMs))
	r.set("ratelimit.tail_dropped", "count", o.tailDropped, 1)
	r.set("udpnet.datagrams_out", "count", o.datagrams, 1)
	r.set("udpnet.decode_errors", "count", o.decode, 1)
	r.set("wire.bytes_per_datagram", "B", o.sentB/o.datagrams, int(o.datagrams))
	return nil
}

// streamSession sets the deployment up (timed), streams windows while the
// operator scrapes and samples, and checks the outcome.
func streamSession(r *report, seed int64, windows int, traced bool) (*sessionOutcome, error) {
	geom := heapgossip.PaperGeometry()
	total := geom.TotalPackets(windows)
	want := int64(total * (udpNodes - 1))
	o := &sessionOutcome{}

	debug.FreeOSMemory()
	var tr *tracer
	if traced {
		tr = newTracer(udpNodes + 1) // the last slot is the operator's
	}
	t0 := time.Now()
	s, err := startUDP(seed, windows, tr)
	if err != nil {
		return nil, err
	}
	o.setup = time.Since(t0).Seconds()
	c0 := cpuTime()
	gc0 := readGC()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		t := time.NewTicker(backlogPeriod)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				for _, n := range s.nodes {
					o.backlogMs = append(o.backlogMs, float64(n.SendQueueBacklog())/float64(time.Millisecond))
				}
			}
		}
	}()
	go func() {
		defer wg.Done()
		operator := heapgossip.NodeID(udpNodes)
		var buf bytes.Buffer
		t := time.NewTicker(scrapePeriod)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				for _, n := range s.nodes {
					var sp int32
					if s.tr != nil {
						sp = s.tr.begin(operator, spTelemetryScrape)
					}
					buf.Reset()
					if err := n.Telemetry().WritePrometheus(&buf); err != nil {
						panic(err) // writes to a bytes.Buffer cannot fail
					}
					if s.tr != nil {
						s.tr.end(operator, sp)
					}
				}
			}
		}
	}()

	// Wait for every receiver to have every packet, or for the drain to
	// run out after the last packet is due.
	lastDue := s.epoch.Add(s.dueAt(heapgossip.PacketID(total - 1)))
	deadline := lastDue.Add(udpDrain)
	for s.delivered.Load() < want && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	got := s.delivered.Load()
	o.cpuUs = float64((cpuTime() - c0).Microseconds()) / float64(max(got, 1))
	o.gc = readGC().sub(gc0)
	// The live heap only grows while the stream runs, because every node
	// keeps what it serves for the engine's 120 s serve buffer, so its peak
	// is the live heap at the stream's end. A sampled peak of heap objects
	// would depend on when the session's one or two collections run.
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	o.peak = float64(ms.HeapAlloc) / (1 << 20)
	s.close()
	o.runS = s.coverage().Seconds()
	r.check(o.runS > 0, "packets reached their last receiver %.3fs after publish", o.runS)
	o.lateMs = s.lateMs
	if traced {
		o.spans = s.tr.totals(1)
	}

	// Lags run from each packet's publish instant; how late the source
	// published against the stream's schedule is stream.source_late_ms.
	o.run = &heapgossip.Run{Geometry: geom, Windows: windows, PublishAt: s.pubAt}
	for i, rcv := range s.receivers {
		o.run.Nodes = append(o.run.Nodes, heapgossip.NodeRecord{Node: heapgossip.NodeID(i), Class: "all", Recv: rcv.Records(), Excluded: i == 0})
		r.check(s.clamped[i] == 0, "node %d: %d deliveries reported a lag clamped to zero (epochs disagree)", i, s.clamped[i])
		r.check(rcv.Received() == s.calls[i], "node %d: %d deliveries for %d distinct packets", i, s.calls[i], rcv.Received())
	}
	r.check(len(s.lateMs) == total, "source published %d of %d packets", len(s.lateMs), total)

	// Transport books, read after Close: every accepted byte was sent or
	// discarded, the queue drained, and every datagram decoded.
	for i, n := range s.nodes {
		reg := n.Telemetry()
		get := func(name string) float64 {
			v, ok := reg.Get(name)
			r.check(ok, "node %d: no %s in its registry", i, name)
			return v
		}
		accepted, sent, discarded := get("udp_accepted_bytes_total"), get("udp_sent_bytes_total"), get("udp_discarded_bytes_total")
		r.check(accepted == sent+discarded, "node %d: accepted %v bytes != sent %v + discarded %v", i, accepted, sent, discarded)
		queued := get("udp_queued_bytes")
		r.check(queued == 0, "node %d: %v bytes still queued after Close", i, queued)
		decode := get("udp_decode_errors_total")
		r.check(decode == 0, "node %d: %v decode errors", i, decode)
		o.datagrams += get("udp_send_datagrams_total")
		o.sentB += sent
		o.tailDropped += get("udp_send_tail_dropped_total")
		o.decode += decode
	}
	fmt.Printf("# udp session: %d windows, %d/%d deliveries, source late p50 %.3f ms max %.3f ms\n",
		windows, got, want, percentile(s.lateMs, 50), percentile(s.lateMs, 100))
	return o, nil
}
