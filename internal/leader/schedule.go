// Package leader implements single-hop (clique) leader election, the
// substrate that Section 4's generic transformation turns into
// SR-communication, and that Theorem 2 connects to the energy complexity
// of Broadcast.
//
// The central object is Schedule, a uniform transmission-probability
// controller in the style of Nakano–Olariu [30]: at every step t all
// contenders use the same probability 2^{-k_t}, where k_t depends only on
// the channel feedback history. The schedule drives both the clique
// leader-election algorithms here and the Lemma 8 SR-communication in
// package srcomm.
package leader

import "repro/internal/radio"

// Schedule is the uniform probability-exponent controller. It seeks the
// exponent k* with 2^{-k*} ~ 1/(number of contenders), at which a trial
// succeeds (exactly one transmitter) with constant probability.
//
// It proceeds in three phases, following the shape of the Nakano–Olariu
// uniform leader-election protocol:
//
//  1. doubling: k = 1, 2, 4, ... while the channel is noisy;
//  2. binary search between the last noisy and first silent exponent;
//  3. scan: cycle through exponents in an expanding window around the
//     search result, guaranteeing every exponent in [1, Max] recurs.
//
// Phase 3 makes the controller robust to the (random) feedback misleading
// the binary search: each full sweep revisits the ideal exponent, so
// failure decays geometrically in the number of epochs regardless of
// earlier bad luck. A trial outcome is reported with Update; the exponent
// to use next comes from K.
type Schedule struct {
	// Max is the largest usable exponent (ceil(log2 of the contender
	// bound), at least 1).
	max   int
	phase int // 0 doubling, 1 binary search, 2 scan
	k     int
	lo    int // noisy exponent (binary search lower bound)
	hi    int // silent exponent (binary search upper bound)
	base  int // scan center
	off   int // scan offset (0, 1, 2, ...); probes base, base-1, base+1, ...
}

// NewSchedule returns a controller for at most maxContenders contenders
// (at least 1).
func NewSchedule(maxContenders int) *Schedule {
	s := MakeSchedule(maxContenders)
	return &s
}

// MakeSchedule is NewSchedule by value, for step machines that embed the
// controller instead of allocating it.
func MakeSchedule(maxContenders int) Schedule {
	m := 1
	for v := 2; v < maxContenders; v *= 2 {
		m++
	}
	if m < 1 {
		m = 1
	}
	return Schedule{max: m, k: 1}
}

// Max returns the largest exponent the schedule uses.
func (s *Schedule) Max() int { return s.max }

// K returns the exponent for the current trial: contenders transmit with
// probability 2^{-K()}.
func (s *Schedule) K() int { return s.k }

// Update advances the controller given the channel status observed at the
// current exponent. Callers stop calling once they observe
// radio.Received; Update treats Received as a no-op.
func (s *Schedule) Update(st radio.Status) {
	if st == radio.Received {
		return
	}
	switch s.phase {
	case 0: // doubling
		if st == radio.Noise {
			if s.k >= s.max {
				// Still noisy at the top exponent: fall back to scanning
				// from the top.
				s.enterScan(s.max)
				return
			}
			s.lo = s.k
			s.k *= 2
			if s.k > s.max {
				s.k = s.max
			}
			return
		}
		// Silence: the ideal exponent is in (lo, k].
		s.hi = s.k
		if s.hi-s.lo <= 1 {
			s.enterScan(s.hi)
			return
		}
		s.phase = 1
		s.k = (s.lo + s.hi) / 2
	case 1: // binary search over (lo, hi]
		if st == radio.Noise {
			s.lo = s.k
		} else {
			s.hi = s.k
		}
		if s.hi-s.lo <= 1 {
			s.enterScan(s.hi)
			return
		}
		s.k = (s.lo + s.hi) / 2
	default: // scan
		s.advanceScan()
	}
}

func (s *Schedule) enterScan(center int) {
	s.phase = 2
	s.base = clamp(center, 1, s.max)
	s.off = 0
	s.k = s.base
}

// advanceScan steps the probe sequence base, base-1, base+1, base-2,
// base+2, ..., clamped to [1, max]; after covering the whole range it
// restarts at base.
func (s *Schedule) advanceScan() {
	for {
		s.off++
		if s.off > 2*s.max {
			s.off = 0
			s.k = s.base
			return
		}
		step := (s.off + 1) / 2
		var cand int
		if s.off%2 == 1 {
			cand = s.base - step
		} else {
			cand = s.base + step
		}
		if cand >= 1 && cand <= s.max {
			s.k = cand
			return
		}
	}
}

func clamp(x, lo, hi int) int {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
