package cluster

// Continuation forms of the SR-communication window and the Refiner,
// for protocols written against radio.Cont. The SR forms run a Window
// that the device program owns, so a device reuses one Window for every
// window it takes part in and only the continuation closures are
// allocated. Each form evaluates mutable device state (roles, payloads)
// at its window's start, so a continuation protocol keeps the
// evaluation order of its blocking ancestor — the property the
// iterclust and partition port pins hold.

import (
	"repro/internal/labeling"
	"repro/internal/radio"
)

// SendCont runs w as a sender in the window of sr at start, then
// resumes with k. payload is read at window start.
func (w *Window) SendCont(sr *Spec, start uint64, payload func() any, k radio.Cont) radio.Cont {
	return radio.Eval(func() radio.Cont {
		w.Reset(sr, Send, start, payload())
		return radio.ProcCont(w, k)
	})
}

// ReceiveCont runs w as a receiver in the window of sr at start; done
// observes the delivery (message, ok) when the window ends, before k
// resumes.
func (w *Window) ReceiveCont(sr *Spec, start uint64, done func(any, bool), k radio.Cont) radio.Cont {
	return radio.Eval(func() radio.Cont {
		w.Reset(sr, Receive, start, nil)
		return radio.ProcCont(w, radio.Do(func() { done(w.Received()) }, k))
	})
}

// SkipCont advances a non-participant's clock to the end of the window,
// then resumes with k: the single sleep of Window's Skip role, without
// a window to carry it.
func (s Spec) SkipCont(start uint64, k radio.Cont) radio.Cont {
	return radio.Then(radio.Sleep(start+s.Slots()-1), k)
}

// refineWindow emits one refinement sweep window: labeled devices at old
// layer sendLayer broadcast their new label, unlabeled devices at old
// layer recvLayer try to adopt. Roles are read at window start.
func (r *Refiner) refineWindow(ws uint64, sendLayer, recvLayer int, k radio.Cont) radio.Cont {
	return radio.Eval(func() radio.Cont {
		switch {
		case r.New != labeling.Bottom && r.Old == sendLayer:
			return r.win.SendCont(&r.SR, ws, func() any { return r.New }, k)
		case r.New == labeling.Bottom && r.Old == recvLayer:
			return r.win.ReceiveCont(&r.SR, ws, func(m any, ok bool) {
				if ok {
					if lab, isInt := m.(int); isInt {
						r.New = lab + 1
					}
				}
			}, k)
		default:
			return r.SR.SkipCont(ws, k)
		}
	})
}

// DownSweepCont is the continuation form of downSweep: windows i =
// 0..Layers-2 over old layers, senders at i, adopters at i+1.
func (r *Refiner) DownSweepCont(start uint64, k radio.Cont) radio.Cont {
	w := r.SR.Slots()
	var it func(i int) radio.Cont
	it = func(i int) radio.Cont {
		if i > r.Layers-2 {
			return k
		}
		return r.refineWindow(start+uint64(i)*w, i, i+1, radio.Eval(func() radio.Cont { return it(i + 1) }))
	}
	return it(0)
}

// UpSweepCont is the continuation form of upSweep: windows i =
// Layers-1..1, senders at i, adopters at i-1.
func (r *Refiner) UpSweepCont(start uint64, k radio.Cont) radio.Cont {
	w := r.SR.Slots()
	var it func(wi int) radio.Cont
	it = func(wi int) radio.Cont {
		i := r.Layers - 1 - wi
		if i < 1 {
			return k
		}
		return r.refineWindow(start+uint64(wi)*w, i, i-1, radio.Eval(func() radio.Cont { return it(wi + 1) }))
	}
	return it(0)
}

// AllWindowCont is the continuation form of allWindow: one window where
// every labeled vertex sends and every unlabeled vertex tries to adopt.
func (r *Refiner) AllWindowCont(start uint64, k radio.Cont) radio.Cont {
	return radio.Eval(func() radio.Cont {
		if r.New != labeling.Bottom {
			return r.win.SendCont(&r.SR, start, func() any { return r.New }, k)
		}
		return r.win.ReceiveCont(&r.SR, start, func(m any, ok bool) {
			if ok {
				if lab, isInt := m.(int); isInt {
					r.New = lab + 1
				}
			}
		}, k)
	})
}

// RefineCont is the continuation form of Refine: s rounds of (Down-cast,
// All-cast, Up-cast) plus a final Down-cast, bracketed by the Step 1
// root coin at entry and the keep-old-label fallback at exit. It
// occupies exactly RefineSlots(SR, Layers, s) slots from start.
// becomeRoot must already be decided by the caller at assembly time
// (the coin is drawn at refinement start, matching the blocking form).
func (r *Refiner) RefineCont(start uint64, s int, becomeRoot bool, k radio.Cont) radio.Cont {
	w := r.SR.Slots()
	sweep := uint64(maxInt(r.Layers-1, 0)) * w
	fallback := radio.Do(func() {
		if r.New == labeling.Bottom {
			r.New = r.Old
		}
	}, k)
	var round func(i int, t uint64) radio.Cont
	round = func(i int, t uint64) radio.Cont {
		if i == s {
			return r.DownSweepCont(t, fallback)
		}
		return r.DownSweepCont(t,
			r.AllWindowCont(t+sweep,
				r.UpSweepCont(t+sweep+w,
					round(i+1, t+2*sweep+w))))
	}
	return radio.Do(func() {
		r.New = labeling.Bottom
		if becomeRoot && r.Old == 0 {
			r.New = 0
		}
	}, round(0, start))
}
