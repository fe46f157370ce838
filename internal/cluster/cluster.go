// Package cluster implements the layered communication machinery of
// Section 5: the Down-cast / All-cast / Up-cast sweeps over a good
// labeling, the Lemma 10 Broadcast given a labeling, and the
// "compute a new labeling L' from L" refinement step.
//
// All phases are built from SR-communication windows. A Spec fixes the
// model-appropriate SR-communication parameters so that every device
// derives the identical global slot layout from shared knowledge (n,
// Delta, model) — the paper's synchronization discipline. A Window runs
// one device's role in one window as an in-place step machine; the
// Broadcaster strings Windows into the Lemma 10 schedule, and the
// continuation forms in cont.go wrap the same Window for protocols
// written against radio.Cont.
package cluster

import (
	"repro/internal/radio"
	"repro/internal/srcomm"
)

// Spec selects and parameterizes the SR-communication realization for a
// model, giving each invocation a fixed window of Slots() slots.
type Spec struct {
	Model radio.Model
	Decay srcomm.DecayParams // No-CD realization (Lemma 7)
	CD    srcomm.CDParams    // CD realization (Lemma 8)
}

// NewSpec returns w.h.p. SR-communication parameters for an n-vertex
// network with maximum degree delta under the given model. For CD the
// Remark 9 pre-check is enabled, which is what makes the Lemma 10 energy
// O(d + log n) rather than O(d log n).
func NewSpec(model radio.Model, n, delta int) Spec {
	if delta < 1 {
		delta = 1
	}
	return Spec{
		Model: model,
		Decay: srcomm.DecayParams{Delta: delta, Phases: srcomm.DecayPhasesForFailure(n)},
		CD: srcomm.CDParams{Delta: delta, Epochs: srcomm.CDEpochsForFailure(n, delta),
			Precheck: true},
	}
}

// Slots returns the window length of one SR-communication invocation.
func (s Spec) Slots() uint64 {
	switch s.Model {
	case radio.Local:
		return 1
	case radio.CD, radio.CDStar:
		return s.CD.Slots()
	default:
		return s.Decay.Slots()
	}
}

// Broadcaster is the per-device state of the Lemma 10 Broadcast over a
// fixed good labeling, and its step machine: Up-cast, d rounds of
// (Down-cast, All-cast, Up-cast), then a final Down-cast. Reset arms it
// and Step runs it as a radio.Proc, which halts when the schedule ends;
// a continuation protocol nests it with radio.ProcCont. The machine
// reads Label, Has and Msg at each window's start, so they may be set
// any time before its first step.
type Broadcaster struct {
	// SR is the shared SR-communication spec.
	SR Spec
	// Layers is the shared bound L on the number of layers.
	Layers int
	// Label is the device's layer L*(v).
	Label int
	// Has reports whether the device holds the message.
	Has bool
	// Msg is the message (valid when Has).
	Msg any
	// Win is the SR window the machine runs its invocations in. It is
	// idle while the machine is not running, so a device program with
	// SR windows of its own before the broadcast (dtime) runs them in
	// Win instead of carrying a second window.
	Win Window

	t, w      uint64 // next window's start; window length
	d, seg, i int32  // rounds; current sweep segment; window within it
	open      bool   // Win holds a window in progress
}

// Reset arms the machine for Broadcast(d) from slot start. The run
// occupies exactly BroadcastSlots(SR, Layers, d) slots.
func (b *Broadcaster) Reset(start uint64, d int) {
	b.t, b.w = start, b.SR.Slots()
	b.d, b.seg, b.i = int32(d), 0, 0
	b.open = false
}

// Step advances the broadcast, returning Halt once the schedule ends.
// A window's delivery is adopted when it ends, before the next window's
// role is chosen.
func (b *Broadcaster) Step(ch radio.Channel, fb radio.Feedback) radio.Action {
	for {
		if b.open {
			if act := b.Win.Step(ch, fb); act.Kind != radio.ActHalt {
				return act
			}
			b.open = false
			if m, ok := b.Win.Received(); ok {
				b.Has, b.Msg = true, m
			}
		}
		role, ok := b.nextRole()
		if !ok {
			return radio.Halt()
		}
		b.Win.Reset(&b.SR, role, b.t, b.Msg)
		b.t += b.w
		b.open = true
	}
}

// nextRole moves the cursor to the next window and returns the device's
// role in it, or false when the schedule is over. Segment 0 is the
// opening Up-cast, segment 3d+1 the closing Down-cast, and segments
// 3r+1, 3r+2, 3r+3 round r's Down-, All- and Up-cast.
func (b *Broadcaster) nextRole() (Role, bool) {
	sweep := int32(maxInt(b.Layers-1, 0))
	for b.seg <= 3*b.d+1 {
		kind := (b.seg + 2) % 3 // 0 Down-cast, 1 All-cast, 2 Up-cast
		if kind == 1 && b.i == 0 {
			b.i++
			if b.Has {
				return Send, true
			}
			return Receive, true
		}
		if kind != 1 && b.i < sweep {
			// Down-cast window i links layer i to i+1; Up-cast window
			// i links layer L-1-i to L-2-i.
			send, recv := int(b.i), int(b.i)+1
			if kind == 2 {
				send, recv = b.Layers-1-int(b.i), b.Layers-2-int(b.i)
			}
			b.i++
			switch {
			case b.Has && b.Label == send:
				return Send, true
			case !b.Has && b.Label == recv:
				return Receive, true
			default:
				return Skip, true
			}
		}
		b.seg, b.i = b.seg+1, 0
	}
	return Skip, false
}

// BroadcastSlots returns the total window length of Broadcast(d) with the
// given spec and layer bound.
func BroadcastSlots(sr Spec, layers, d int) uint64 {
	sweep := uint64(maxInt(layers-1, 0)) * sr.Slots()
	// Up-cast + d * (Down-cast, All-cast, Up-cast) + Down-cast.
	return sweep + uint64(d)*(2*sweep+sr.Slots()) + sweep
}

// Refiner is the per-device state of the "compute L' from L" step of
// Section 5. Labels use labeling.Bottom for the paper's ⊥.
type Refiner struct {
	// SR is the shared SR-communication spec.
	SR Spec
	// Layers bounds the layer count of the old labeling (the paper
	// sweeps i = 0..n-2, i.e. Layers = n).
	Layers int
	// Old is the device's label under L.
	Old int
	// New is the device's label under L' (Bottom until assigned).
	New int

	win Window // the SR window every refinement window runs in
}

// RefineSlots returns the total window length of a refinement with
// parameter s.
func RefineSlots(sr Spec, layers, s int) uint64 {
	sweep := uint64(maxInt(layers-1, 0)) * sr.Slots()
	return uint64(s)*(2*sweep+sr.Slots()) + sweep
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
