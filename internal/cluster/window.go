package cluster

import (
	"repro/internal/radio"
	"repro/internal/srcomm"
)

// Role is a device's part in one SR-communication window.
type Role uint8

// The window roles.
const (
	// Skip sleeps through the window at no energy cost.
	Skip Role = iota
	// Send offers a payload to the window's receivers.
	Send
	// Receive tries to obtain one sender neighbor's payload.
	Receive
)

// Window is one SR-communication invocation of a Spec as an in-place
// step machine: the device's role in the window [start, start+Slots()).
// Reset re-arms it for the next window without allocating, so a device
// program embeds one Window by value and runs every window it takes
// part in through it. Step follows the radio.Proc contract and returns
// Halt when the window is over; that halt ends the window, not the
// device, and the caller moves on to its next window on the same step.
//
// Every role finishes with the device clock at the window's last slot,
// so the action stream is the one the srcomm step machines emit for the
// same role. A receiving machine points into its Window, so a Window
// must not be copied while a window is in progress.
type Window struct {
	model radio.Model
	role  Role
	stage uint8 // Local and Skip progress: 0, then 1 after the action; Local ends at 2
	ok    bool  // Receive: got holds a delivery

	slot    uint64 // Local: the window's slot; Skip: its last slot
	payload any    // Local send
	got     any    // Receive: the payload delivered

	cdSend    srcomm.CDSend
	cdRecv    srcomm.CDReceive
	decaySend srcomm.DecaySend
	decayRecv srcomm.DecayReceive
}

// Reset arms w for the device's role in the window of sr at start.
// payload is only read for Send.
func (w *Window) Reset(sr *Spec, role Role, start uint64, payload any) {
	w.role, w.model, w.stage = role, sr.Model, 0
	w.payload, w.got, w.ok = nil, nil, false
	switch {
	case role == Skip:
		w.slot = start + sr.Slots() - 1
	case sr.Model == radio.Local:
		w.slot = start
		if role == Send {
			w.payload = payload
		}
	case sr.Model == radio.CD || sr.Model == radio.CDStar:
		if role == Send {
			w.cdSend.Reset(start, sr.CD, payload)
		} else {
			w.cdRecv.Reset(start, sr.CD, &w.got, &w.ok)
		}
	default:
		if role == Send {
			w.decaySend.Reset(start, sr.Decay, payload)
		} else {
			w.decayRecv.Reset(start, sr.Decay, &w.got, &w.ok)
		}
	}
}

// Step advances the window, returning Halt once it is over.
func (w *Window) Step(ch radio.Channel, fb radio.Feedback) radio.Action {
	switch {
	case w.role == Skip:
		if w.stage == 0 {
			w.stage = 1
			return radio.Sleep(w.slot)
		}
		return radio.Halt()
	case w.model == radio.Local:
		// The trivial LOCAL SR-communication: one collision-free slot.
		switch w.stage {
		case 0:
			w.stage = 1
			if w.role == Send {
				return radio.Transmit(w.slot, w.payload)
			}
			return radio.Listen(w.slot)
		case 1:
			w.stage = 2
			if w.role == Receive && len(fb.Payloads) > 0 {
				w.got, w.ok = fb.Payloads[0], true
			}
		}
		return radio.Halt()
	case w.model == radio.CD || w.model == radio.CDStar:
		if w.role == Send {
			return w.cdSend.Step(ch, fb)
		}
		return w.cdRecv.Step(ch, fb)
	default:
		if w.role == Send {
			return w.decaySend.Step(ch, fb)
		}
		return w.decayRecv.Step(ch, fb)
	}
}

// Received reports the payload a Receive window delivered; it is valid
// once Step has returned Halt, and always false for the other roles.
func (w *Window) Received() (any, bool) { return w.got, w.ok }
