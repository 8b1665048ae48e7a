// Package stack assembles one node's protocol layers — the HEAP stack of
// the paper: Algorithm 1's dissemination engine drawing targets from the
// node's peer sampler, Algorithm 2's capability aggregation feeding its
// fanout, and the optional layers around them (size averaging, misbehavior
// detection, congestion-driven re-advertisement, hop tracing, stream
// sources).
//
// Both substrates build their nodes through Build: the simulator
// (internal/scenario) and the real-UDP node (heapgossip.StartNode). The
// protocol-level description of a node is a Spec; a Substrate carries only
// what genuinely differs between the two — the membership the substrate
// built, the uplink signal the adaptation loop samples, observation hooks,
// and the adversary's message interceptor.
//
// Build registers the layers on the node's mux in one fixed order — peer
// sampling (Cyclon), size averaging, capability aggregation, dissemination,
// then sources in stream order. The mux starts handlers in registration
// order and each Start draws from the node's rng, so that order is a
// determinism invariant: every simulation fingerprint depends on it.
package stack

import (
	"math"

	"repro/internal/adapt"
	"repro/internal/aggregation"
	"repro/internal/core"
	"repro/internal/env"
	"repro/internal/membership"
	"repro/internal/misbehave"
	"repro/internal/stream"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// Spec is the protocol-level description of one node.
type Spec struct {
	// ID is the node's identity.
	ID wire.NodeID
	// Engine configures dissemination. Build fills Sampler, Adaptive,
	// Capabilities, FanoutFn, Monitor, Trace, Adapt, AdaptSignal and
	// OnAdapt from the rest of the Spec and the Substrate.
	Engine core.Config
	// AdvertisedKbps is the capability the node claims: the estimator's
	// self capability and the adaptation controller's ceiling.
	AdvertisedKbps uint32
	// Aggregation, when non-nil, runs HEAP's capability estimator with
	// these knobs and makes the engine adaptive. Build fills SelfCapKbps,
	// Sampler and Exclude.
	Aggregation *aggregation.Config
	// AutoFanout, when non-nil, runs push-pull size averaging and derives
	// the engine's fbar from the estimate.
	AutoFanout *AutoFanout
	// Detector, when non-nil, runs the misbehavior detector on the node and
	// routes its verdicts through three hook points: the target draws
	// (misbehave.QuarantineSampler), the engine's Monitor, and the
	// aggregation Exclude filter.
	Detector *misbehave.Config
	// Adapt, when non-nil, runs a congestion-driven re-advertisement
	// controller sampling Substrate.AdaptSignal.
	Adapt *adapt.Config
	// Trace, when non-nil, records this node's dissemination-path events.
	Trace *telemetry.TraceConfig
	// Streams are opened on the engine up front, in order: tables are
	// presized and the budget allocator weighs every stream from the first
	// round. Local streams also get a source on this node.
	Streams []Stream
}

// AutoFanout derives fbar from a continuous system-size estimate: ln(n̂)+C
// once n̂ reaches 2, the engine's static Fanout before.
type AutoFanout struct {
	// Initial seeds the average: 1 at exactly one node, 0 everywhere else,
	// so the mean converges to 1/n.
	Initial float64
	// C is the additive reliability margin.
	C float64
}

// Stream is one stream the engine opens. SourceConfig's Publisher and OnDone
// are filled by Build; StartAt matters only for local streams.
type Stream struct {
	stream.SourceConfig
	// Local makes this node the stream's broadcaster.
	Local bool
}

// Substrate is what the runtime hosting the node supplies.
type Substrate struct {
	// Membership is the node's peer sampler: a membership.View (cluster
	// views enable split fanout), or a *membership.Cyclon, which Build
	// registers for its shuffle messages.
	Membership membership.Sampler
	// Targets, when non-nil, replaces the membership sampler for the
	// engine's gossip draws only (the simulator's source-bias ablation).
	Targets membership.Sampler
	// AdaptSignal samples the node's uplink pressure; required with
	// Spec.Adapt.
	AdaptSignal func() adapt.Sample
	// OnAdapt, if non-nil, observes every effective-capability change.
	OnAdapt func(effKbps uint32)
	// OnDone, if non-nil, fires when a local source has published its last
	// packet.
	OnDone func(wire.StreamID)
	// Intercept, if non-nil, wraps the engine's message handler (the
	// simulator's adversarial node classes).
	Intercept func(env.Handler) env.Handler
}

// Stack is one assembled node: the mux to host on a substrate, plus handles
// on every layer Build created (nil for layers the Spec left out).
type Stack struct {
	Mux        *env.Mux
	Engine     *core.Engine
	Estimator  *aggregation.Estimator
	Averager   *aggregation.Averager
	Detector   *misbehave.Detector
	Controller *adapt.Controller
	Tracer     *telemetry.Tracer
	// Sources are the local streams' sources, in Spec.Streams order.
	Sources []*stream.Source

	onDone func(wire.StreamID)
}

// Build wires a node's protocol layers and registers them on a fresh mux.
func Build(spec Spec, sub Substrate) (*Stack, error) {
	s := &Stack{Mux: env.NewMux(), onDone: sub.OnDone}
	sampler := sub.Membership
	if pss, ok := sampler.(*membership.Cyclon); ok {
		s.Mux.Register(pss, wire.KindShuffleReq, wire.KindShuffleReply)
	}
	eng := spec.Engine
	if spec.Detector != nil {
		det, err := misbehave.New(*spec.Detector)
		if err != nil {
			return nil, err
		}
		s.Detector = det
		sampler = &misbehave.QuarantineSampler{Inner: sampler, Detector: det}
		eng.Monitor = det
	}
	eng.Sampler = sampler
	if sub.Targets != nil {
		eng.Sampler = sub.Targets
	}
	if spec.Trace != nil {
		s.Tracer = telemetry.NewTracer(spec.ID, *spec.Trace)
		eng.Trace = s.Tracer
	}
	if af := spec.AutoFanout; af != nil {
		avg := aggregation.NewAverager(aggregation.AveragerConfig{InitialValue: af.Initial, Sampler: sampler})
		s.Averager = avg
		s.Mux.Register(avg, wire.KindAvgPush, wire.KindAvgReply)
		fallback, c := eng.Fanout, af.C
		eng.FanoutFn = func() float64 {
			nHat := avg.SizeEstimate()
			if nHat < 2 {
				return fallback
			}
			return math.Log(nHat) + c
		}
	}
	if spec.Aggregation != nil {
		agg := *spec.Aggregation
		agg.SelfCapKbps = spec.AdvertisedKbps
		agg.Sampler = sampler
		if s.Detector != nil {
			// The fanout penalty: a quarantined peer's capability claim
			// leaves bbar, handing its fanout share back to honest nodes.
			agg.Exclude = s.Detector.Quarantined
		}
		s.Estimator = aggregation.NewEstimator(agg)
		eng.Adaptive = true
		eng.Capabilities = s.Estimator
		s.Mux.Register(s.Estimator, wire.KindAggregate)
	}
	if spec.Adapt != nil {
		ctrl, err := adapt.NewController(*spec.Adapt, spec.AdvertisedKbps)
		if err != nil {
			return nil, err
		}
		s.Controller = ctrl
		eng.Adapt, eng.AdaptSignal, eng.OnAdapt = ctrl, sub.AdaptSignal, sub.OnAdapt
	}
	e, err := core.New(eng)
	if err != nil {
		return nil, err
	}
	s.Engine = e
	for _, st := range spec.Streams {
		src, err := s.Open(st)
		if err != nil {
			return nil, err
		}
		if src != nil {
			s.Sources = append(s.Sources, src)
		}
	}
	var h env.Handler = e
	if sub.Intercept != nil {
		h = sub.Intercept(h)
	}
	s.Mux.Register(h, wire.KindPropose, wire.KindRequest, wire.KindServe)
	for _, src := range s.Sources {
		s.Mux.Register(src) // lifecycle only
	}
	return s, nil
}

// Open opens one stream on the engine, building its source first when the
// stream is local. Build opens Spec.Streams through it; on a running node,
// the caller starts the returned source itself (the mux is already running,
// so the source is not registered on it).
func (s *Stack) Open(st Stream) (*stream.Source, error) {
	var src *stream.Source
	if st.Local {
		sc := st.SourceConfig
		sc.Publisher = s.Engine
		if s.onDone != nil {
			id, done := sc.Stream, s.onDone
			sc.OnDone = func() { done(id) }
		}
		var err error
		if src, err = stream.NewSource(sc); err != nil {
			return nil, err
		}
	}
	return src, s.Engine.OpenStream(st.Stream, core.StreamConfig{
		ExpectedPackets: st.Geometry.TotalPackets(st.Windows),
		RateKbps:        float64(st.Geometry.EffectiveRateBps()) / 1000,
	})
}
