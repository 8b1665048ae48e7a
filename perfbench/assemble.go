package main

import (
	"fmt"
	"math/rand"
	"time"

	heapgossip "repro"
	"repro/internal/aggregation"
	"repro/internal/core"
	"repro/internal/env"
	"repro/internal/membership"
	"repro/internal/netem"
	"repro/internal/simnet"
	"repro/internal/stream"
	"repro/internal/wire"
)

// assembly is a simulated node stack built by the benchmark itself, from the
// same public constructors heapgossip.RunScenario uses, so a traced run can
// wrap each layer. It covers exactly the shapes of the benchmark's
// simulated workloads: a single HEAP stream from node 0, full-membership
// views or Cyclon, optionally a topology and a netem profile. Every field
// it reads must be set explicitly in the scenario (see the workload
// configs); it applies no defaults of its own.
type assembly struct {
	cfg        heapgossip.Scenario
	net        *simnet.Network
	netem      *netem.Engine
	caps       []uint32
	engines    []*core.Engine
	estimators []*aggregation.Estimator
	receivers  []*stream.Receiver
	horizon    time.Duration
}

// assemble builds the workload's node stack, with a span recorder around
// every layer when t is non-nil. It mirrors scenario.Run call for call —
// including the order of every seeded rng draw and every scheduled global
// event — so that with t nil it runs the same program as RunScenario; the
// equivalence gate checks that it does.
func assemble(cfg heapgossip.Scenario, t *tracer) (*assembly, error) {
	n := cfg.Nodes
	setupRng := rand.New(rand.NewSource(cfg.Seed ^ 0x5ca1ab1e))
	caps := make([]uint32, n)
	copy(caps[1:], cfg.Dist.Assign(n-1, setupRng))
	caps[0] = cfg.SourceCapKbps

	netCfg := simnet.Config{
		Seed:     cfg.Seed,
		Latency:  simnet.NewPairwiseLatency(cfg.Seed, cfg.LatencyMin, cfg.LatencyMax, cfg.LatencyJitter),
		LossRate: cfg.LossRate,
		Shards:   cfg.Shards,
	}
	latencySpan := spSimnetLatency
	var clusterOf func(wire.NodeID) int
	if cfg.Topology != nil {
		topol, err := cfg.Topology.Build(cfg.Seed)
		if err != nil {
			return nil, err
		}
		netCfg.Latency = topol
		netCfg.RegionOf = topol.ClusterOf
		clusterOf = topol.ClusterOf
		latencySpan = spTopoLatency
	}
	a := &assembly{cfg: cfg, caps: caps}
	if cfg.Netem != nil {
		var err error
		if clusterOf != nil {
			a.netem, err = cfg.Netem.BuildWithRegions(n, cfg.Seed, cfg.LossRate, clusterOf)
		} else {
			a.netem, err = cfg.Netem.Build(n, cfg.Seed, cfg.LossRate)
		}
		if err != nil {
			return nil, err
		}
		netCfg.Netem = a.netem
		if t != nil {
			netCfg.Netem = &tracedNetem{inner: a.netem, t: t}
		}
	}
	if t != nil {
		netCfg.Latency = &tracedLatency{inner: netCfg.Latency, t: t, name: latencySpan}
	}
	a.net = simnet.New(netCfg)
	allIDs := membership.NewDirectory(n).IDs()
	pssRng := rand.New(rand.NewSource(cfg.Seed ^ 0x9551))
	a.engines = make([]*core.Engine, n)
	a.estimators = make([]*aggregation.Estimator, n)
	a.receivers = make([]*stream.Receiver, n)
	geom := cfg.Geometry
	totalPackets := geom.TotalPackets(cfg.Windows)

	// wrap registers h on mux, behind a span recorder when tracing.
	wrap := func(mux *env.Mux, id wire.NodeID, h env.Handler, recv func(wire.Kind) spanName, timer spanName, kinds ...wire.Kind) {
		if t != nil {
			h = &tracedHandler{h: h, t: t, node: id, recv: recv, timer: timer}
		}
		mux.Register(h, kinds...)
	}

	for i := 0; i < n; i++ {
		id := wire.NodeID(i)
		rcv, err := stream.NewReceiver(geom, cfg.Windows, false)
		if err != nil {
			return nil, err
		}
		a.receivers[i] = rcv
		onDeliver := rcv.OnDeliver
		if t != nil {
			onDeliver = func(ev wire.Event, at time.Duration) {
				s := t.begin(id, spStreamDeliver)
				rcv.OnDeliver(ev, at)
				t.end(id, s)
			}
		}

		mux := env.NewMux()
		var sampler interface {
			membership.Sampler
			membership.PeerAppender
		}
		if cfg.UsePSS {
			bootstrap := make([]wire.NodeID, 0, 5)
			for len(bootstrap) < 5 {
				if p := wire.NodeID(pssRng.Intn(n)); p != id {
					bootstrap = append(bootstrap, p)
				}
			}
			pss := membership.NewCyclon(membership.CyclonConfig{ViewSize: cfg.PSSViewSize}, bootstrap)
			wrap(mux, id, pss, func(wire.Kind) spanName { return spMemShuffle }, spMemShuffle,
				wire.KindShuffleReq, wire.KindShuffleReply)
			sampler = pss
		} else {
			sampler = membership.NewView(id, allIDs)
		}
		if t != nil {
			sampler = &tracedSampler{inner: sampler, t: t, node: id}
		}

		engCfg := core.Config{
			Fanout:          cfg.Fanout,
			MaxFanout:       cfg.MaxFanout,
			GossipPeriod:    cfg.GossipPeriod,
			RetPeriod:       cfg.RetPeriod,
			RetMaxAttempts:  cfg.RetMaxAttempts,
			ExpectedPackets: totalPackets,
			Sampler:         sampler,
			OnDeliver:       onDeliver,
			UploadKbps:      caps[i],
		}
		if i != 0 {
			est := aggregation.NewEstimator(aggregation.Config{
				SelfCapKbps: caps[i],
				Period:      cfg.AggPeriod,
				Fanout:      cfg.AggFanout,
				FreshestK:   cfg.AggFreshestK,
				Sampler:     sampler,
				TrackLimit:  cfg.AggTrackLimit,
			})
			a.estimators[i] = est
			engCfg.Adaptive = true
			engCfg.Capabilities = est
			wrap(mux, id, est, func(wire.Kind) spanName { return spAggReceive }, spAggTick, wire.KindAggregate)
		}
		eng, err := core.New(engCfg)
		if err != nil {
			return nil, err
		}
		if err := eng.OpenStream(0, core.StreamConfig{
			ExpectedPackets: totalPackets,
			RateKbps:        float64(geom.EffectiveRateBps()) / 1000,
		}); err != nil {
			return nil, err
		}
		a.engines[i] = eng
		wrap(mux, id, eng, coreSpan, spCoreTimer, wire.KindPropose, wire.KindRequest, wire.KindServe)

		if i == 0 {
			var pub stream.Publisher = eng
			if t != nil {
				pub = &tracedPublisher{inner: eng, t: t, node: id}
			}
			src, err := stream.NewSource(stream.SourceConfig{
				Geometry:  geom,
				Windows:   cfg.Windows,
				StartAt:   cfg.StreamStart,
				Publisher: pub,
			})
			if err != nil {
				return nil, err
			}
			wrap(mux, id, src, nil, spStreamSource)
		}
		if got := a.net.AddNode(mux, simnet.NodeConfig{UploadBps: int64(caps[i]) * 1000}); got != id {
			return nil, fmt.Errorf("assembly: node id %d, want %d", got, id)
		}
	}

	// RunScenario snapshots upload counters at the start and end of the
	// stream; those are two global events, so the assembly schedules two
	// as well to dispatch the same event sequence.
	streamEnd := cfg.StreamStart + geom.PublishOffset(wire.PacketID(totalPackets-1))
	a.net.Schedule(cfg.StreamStart, func() {})
	a.net.Schedule(streamEnd, func() {})
	a.horizon = streamEnd + cfg.Drain
	return a, nil
}

func coreSpan(k wire.Kind) spanName {
	switch k {
	case wire.KindPropose:
		return spCorePropose
	case wire.KindRequest:
		return spCoreRequest
	default:
		return spCoreServe
	}
}

// run executes the assembled network to the scenario's horizon.
func (a *assembly) run() { a.net.Run(a.horizon) }
