package misbehave

import (
	"math/rand"

	"repro/internal/membership"
	"repro/internal/wire"
)

// QuarantineSampler wires the detector's verdicts through the membership
// sampler: gossip target draws exclude currently quarantined peers, so a
// convicted freerider stops receiving this node's proposals — and with them
// the payloads it was freeriding on. It filters both draw paths the engine
// uses: uniform draws (filtered slots are redrawn, bounded, so honest
// fanout is preserved) and split intra/inter draws (the filter is handed to
// the inner split draw, which passes over quarantined peers as it goes).
//
// When nothing is quarantined the wrapper draws exactly once and consumes
// exactly the inner sampler's randomness, so an unarmed detector leaves the
// peer-selection stream untouched.
type QuarantineSampler struct {
	// Inner is the wrapped sampler (static view or PSS).
	Inner membership.Sampler
	// Detector supplies the quarantine verdicts.
	Detector *Detector

	quarantined func(wire.NodeID) bool // Detector.Quarantined, bound once
}

var (
	_ membership.Sampler      = (*QuarantineSampler)(nil)
	_ membership.SplitSampler = (*QuarantineSampler)(nil)
)

// redrawRounds bounds the extra draws replacing filtered slots. Two rounds
// recover full fanout except under mass quarantine, where a short draw is
// the correct outcome anyway (most of the view is convicted).
const redrawRounds = 2

// SelectPeers draws up to k non-quarantined peers.
func (s *QuarantineSampler) SelectPeers(rng *rand.Rand, k int) []wire.NodeID {
	return s.AppendPeers(nil, rng, k)
}

// AppendPeers appends up to k non-quarantined peers to dst. Filtering and
// redraws compact in place, so a warm dst makes the call allocation-free.
func (s *QuarantineSampler) AppendPeers(dst []wire.NodeID, rng *rand.Rand, k int) []wire.NodeID {
	base := len(dst)
	dst = s.Inner.AppendPeers(dst, rng, k)
	n := base
	for _, p := range dst[base:] {
		if !s.Detector.Quarantined(p) {
			dst[n] = p
			n++
		}
	}
	if n == len(dst) {
		return dst
	}
	dst = dst[:n]
	for round := 0; round < redrawRounds && n-base < k; round++ {
		dst = s.Inner.AppendPeers(dst, rng, k-(n-base))
		kept := n
		for _, p := range dst[kept:] {
			if !s.Detector.Quarantined(p) && !contains(dst[base:n], p) {
				dst[n] = p
				n++
			}
		}
		dst = dst[:n]
		if n == kept {
			break
		}
	}
	return dst
}

// AppendSplit implements membership.SplitSampler over an inner split draw,
// passing over quarantined peers (and any peer skip rejects). An inner
// sampler without a split draw falls back to a filtered uniform draw of
// kIntra+kInter, like a view built without clusters.
func (s *QuarantineSampler) AppendSplit(dst []wire.NodeID, rng *rand.Rand, kIntra, kInter int, skip func(wire.NodeID) bool) []wire.NodeID {
	split, ok := s.Inner.(membership.SplitSampler)
	if !ok {
		return s.AppendPeers(dst, rng, max(kIntra, 0)+max(kInter, 0))
	}
	if s.quarantined == nil {
		s.quarantined = s.Detector.Quarantined
	}
	filter := s.quarantined
	if skip != nil {
		filter = func(id wire.NodeID) bool { return skip(id) || s.Detector.Quarantined(id) }
	}
	return split.AppendSplit(dst, rng, kIntra, kInter, filter)
}

// PeerCount returns the inner sampler's population size (quarantined peers
// included: the count sizes fanout budgets, and quarantine is a routing
// decision, not a membership one).
func (s *QuarantineSampler) PeerCount() int { return s.Inner.PeerCount() }

// contains reports whether id is already drawn; fanouts are small, so a
// linear scan beats building a set.
func contains(peers []wire.NodeID, id wire.NodeID) bool {
	for _, p := range peers {
		if p == id {
			return true
		}
	}
	return false
}
