package cdmerge

// Step-machine port of the Theorem 20 device: the same protocol as
// Program, expressed as a radio.Proc over the continuation combinators
// so the scheduler drives it inline with zero per-device goroutines and
// zero park/wake per action.
//
// The port follows the detcast discipline: the slot layout is a pure
// function of Params and is threaded eagerly through the builders,
// while every read of mutable device state (layer, parent, ind, state,
// merge bookkeeping) is deferred into an Eval thunk that runs at its
// window's start — the exact evaluation points of the blocking
// implementation, which is what makes proc_test.go's byte-identical
// trace pin possible. SR sub-windows nest srcomm's CD step machines
// through radio.ProcCont, precisely where the blocking form called the
// Drive-based wrappers.

import (
	"repro/internal/cluster"
	"repro/internal/radio"
	"repro/internal/rng"
	"repro/internal/srcomm"
)

// cont abbreviates the engine's continuation type.
type cont = radio.Cont

// pdev is the step-machine twin of dev: identical protocol state, no
// blocking Env (the channel handle arrives per step).
type pdev struct {
	p     Params
	index int

	colors       []int // own colors, 1-based per coloring
	layer        int
	parent       int // -1 at roots
	parentColors []int
	ind          int // Ind(self, parent), 1-based; 0 unknown

	state int

	captured  *reqMsg
	winner    int
	newLayer  int // -1 until set during a relabel
	newParent int
	newPCols  []int
}

// txIndex transmits the device's own index at slot, then k. The payload
// is served from the simulator's interning table (radio.BoxInt) — the
// same integer value the blocking form transmits, without its per-call
// boxing allocation.
func txIndex(slot uint64, k cont) cont {
	return func(ch radio.Channel, fb radio.Feedback) (radio.Action, cont) {
		return radio.Transmit(slot, radio.BoxInt(ch, ch.Index())), k
	}
}

// lemma19K mirrors dev.lemma19: per coloring the device transmits in its
// own color slot and, while Ind is unknown, listens in the parent's
// color slot; the pass ends with a sleep to the window boundary.
func (d *pdev) lemma19K(start uint64, k cont) cont {
	p := d.p
	end := radio.Then(radio.Sleep(start+p.lemma19Slots()-1), k)
	var coloring func(j int) cont
	coloring = func(j int) cont {
		if j >= p.C {
			return end
		}
		return radio.Eval(func() cont {
			base := start + uint64(j)*uint64(p.K)
			next := radio.Eval(func() cont { return coloring(j + 1) })
			ownSlot := base + uint64(d.colors[j]-1)
			// The blocking loop's if/else makes the transmit branch win
			// when the parent's color equals the device's own, so only a
			// distinct parent color yields a listen.
			if d.parent >= 0 && d.ind == 0 && d.parentColors[j] != d.colors[j] {
				lSlot := base + uint64(d.parentColors[j]-1)
				listen := func(k cont) cont {
					return radio.Recv(lSlot, func(fb radio.Feedback) cont {
						if fb.Status == radio.Received {
							d.ind = j + 1
						}
						return k
					})
				}
				if lSlot < ownSlot {
					return listen(txIndex(ownSlot, next))
				}
				return txIndex(ownSlot, listen(next))
			}
			return txIndex(ownSlot, next)
		})
	}
	return radio.Do(func() { d.ind = 0 }, coloring(0))
}

// downPassK mirrors dev.downPass: per layer iteration, senders at layer
// it transmit in their color slots, children listen at (Ind, parent
// color), and every iteration ends with a sleep to its boundary.
func (d *pdev) downPassK(start uint64, send func() (any, bool), recv func(any), k cont) cont {
	p := d.p
	per := uint64(p.C) * uint64(p.K)
	var iter func(it int) cont
	iter = func(it int) cont {
		if it > p.Layers-2 {
			return k
		}
		base := start + uint64(it)*per
		sleep := radio.Then(radio.Sleep(base+per-1), radio.Eval(func() cont { return iter(it + 1) }))
		return radio.Eval(func() cont {
			switch {
			case d.layer == it:
				payload, ok := send()
				if !ok {
					return sleep
				}
				var tx func(j int) cont
				tx = func(j int) cont {
					if j >= p.C {
						return sleep
					}
					return radio.Then(radio.Transmit(base+uint64(j*p.K+d.colors[j]-1), payload),
						radio.Eval(func() cont { return tx(j + 1) }))
				}
				return tx(0)
			case d.layer == it+1 && d.parent >= 0 && d.ind > 0:
				j := d.ind - 1
				return radio.Recv(base+uint64(j*p.K+d.parentColors[j]-1), func(fb radio.Feedback) cont {
					if fb.Status == radio.Received {
						recv(fb.Payload)
					}
					return sleep
				})
			default:
				return sleep
			}
		})
	}
	return iter(0)
}

// upPassK mirrors dev.upPass: per descending layer iteration, the
// sender joins the SR sub-window indexed by (Ind, parent color) and the
// parent listens in the sub-windows of its own colors.
func (d *pdev) upPassK(start uint64, send func() (any, bool), recv func(any), k cont) cont {
	p := d.p
	w := p.UpSR.Slots()
	per := uint64(p.C) * uint64(p.K) * w
	var iter func(it int) cont
	iter = func(it int) cont {
		if it < 1 {
			return k
		}
		base := start + uint64(p.Layers-1-it)*per
		sleep := radio.Then(radio.Sleep(base+per-1), radio.Eval(func() cont { return iter(it - 1) }))
		return radio.Eval(func() cont {
			if d.layer == it && d.parent >= 0 && d.ind > 0 {
				payload, sending := send()
				if !sending {
					return sleep
				}
				j := d.ind - 1
				ws := base + (uint64(j)*uint64(p.K)+uint64(d.parentColors[j]-1))*w
				return radio.ProcCont(srcomm.CDSendProc(ws, p.UpSR, payload), sleep)
			}
			if d.layer == it-1 {
				var win func(j int) cont
				win = func(j int) cont {
					if j >= p.C {
						return sleep
					}
					ws := base + (uint64(j)*uint64(p.K)+uint64(d.colors[j]-1))*w
					var m any
					var ok bool
					return radio.ProcCont(srcomm.CDReceiveProc(ws, p.UpSR, &m, &ok),
						radio.Eval(func() cont {
							if ok {
								recv(m)
							}
							return win(j + 1)
						}))
				}
				return win(0)
			}
			return sleep
		})
	}
	return iter(p.Layers - 1)
}

// innerIterationK mirrors dev.innerIteration: request window, gather
// (up), decision (down), relabel (up + down), state commit, Ind
// re-learning.
func (d *pdev) innerIterationK(start uint64, k cont) cont {
	p := d.p
	tGather := start + p.ReqSR.Slots()
	tDecision := tGather + p.upSlots()
	tRelabelUp := tDecision + p.downSlots()
	tRelabelDown := tRelabelUp + p.upSlots()
	tLemma := tRelabelDown + p.downSlots()

	// (e) local state commit, then (f) re-learn Ind.
	commit := radio.Do(func() {
		switch {
		case d.newLayer >= 0:
			d.layer = d.newLayer
			d.parent = d.newParent
			d.parentColors = d.newPCols
			d.state = stateActive
		case d.state == stateActive:
			d.state = stateHalt
		}
	}, d.lemma19K(tLemma, k))

	// (d) relabel the merged cluster from the capturer.
	relabelSend := func() (any, bool) {
		if d.newLayer >= 0 {
			return relabelMsg{from: d.index, fromColors: d.colors, newLayer: d.newLayer}, true
		}
		return nil, false
	}
	relabel := radio.Do(func() {
		d.newLayer, d.newParent, d.newPCols = -1, -1, nil
		if d.winner == d.index && d.captured != nil {
			d.newLayer = d.captured.fromLayer + 1
			d.newParent = d.captured.from
			d.newPCols = d.captured.fromColors
		}
	}, d.upPassK(tRelabelUp, relabelSend, func(m any) {
		rm, ok := m.(relabelMsg)
		if !ok || d.newLayer >= 0 || d.state != stateWait || d.winner < 0 {
			return
		}
		d.newLayer = rm.newLayer + 1
		d.newParent = rm.from
		d.newPCols = rm.fromColors
	}, d.downPassK(tRelabelDown, relabelSend, func(m any) {
		rm, ok := m.(relabelMsg)
		if !ok || d.newLayer >= 0 || d.state != stateWait || d.winner < 0 {
			return
		}
		// Received from the old parent: keep it as the tree parent.
		d.newLayer = rm.newLayer + 1
		d.newParent = d.parent
		d.newPCols = d.parentColors
	}, commit)))

	// (b)+(c) gather candidates up to the root, which announces the
	// winning capturer down the tree. cand lives for this iteration only
	// (the chain instance is single-use, like the blocking local).
	var cand *gatherCand
	decision := radio.Do(func() {
		d.winner = -1
		if d.parent < 0 && d.state == stateWait && cand != nil {
			d.winner = cand.capturer
		}
	}, d.downPassK(tDecision,
		func() (any, bool) {
			if d.winner >= 0 {
				return decisionMsg{winner: d.winner}, true
			}
			return nil, false
		},
		func(m any) {
			if dm, ok := m.(decisionMsg); ok && d.state == stateWait {
				d.winner = dm.winner
			}
		}, relabel))
	gather := radio.Do(func() {
		cand = nil
		if d.captured != nil && d.state == stateWait {
			cand = &gatherCand{capturer: d.index}
		}
	}, d.upPassK(tGather,
		func() (any, bool) {
			if cand != nil && d.state == stateWait {
				return *cand, true
			}
			return nil, false
		},
		func(m any) {
			if gm, ok := m.(gatherCand); ok && d.state == stateWait && cand == nil {
				cand = &gm
			}
		}, decision))

	// (a) merge requests: Active members send, Wait members listen.
	return radio.Eval(func() cont {
		d.captured = nil
		switch d.state {
		case stateActive:
			return radio.ProcCont(srcomm.CDSendProc(start, p.ReqSR,
				reqMsg{from: d.index, fromColors: d.colors, fromLayer: d.layer}), gather)
		case stateWait:
			var m any
			var ok bool
			return radio.ProcCont(srcomm.CDReceiveProc(start, p.ReqSR, &m, &ok),
				radio.Eval(func() cont {
					if ok {
						if rm, isReq := m.(reqMsg); isReq {
							d.captured = &rm
						}
					}
					return gather
				}))
		default:
			return radio.Then(radio.Sleep(start+p.ReqSR.Slots()-1), gather)
		}
	})
}

// outerRoundK mirrors dev.outerRound: roots flip the Active coin, the
// state floods down every tree, then S merge iterations run.
func (d *pdev) outerRoundK(start uint64, k cont) cont {
	p := d.p
	var inners func(i int, t uint64) cont
	inners = func(i int, t uint64) cont {
		if i >= p.S {
			return k
		}
		return d.innerIterationK(t, radio.Eval(func() cont { return inners(i+1, t+p.innerSlots()) }))
	}
	body := radio.Do(func() {
		if d.state < 0 {
			d.state = stateWait // unreachable stragglers wait
		}
	}, inners(0, start+p.downSlots()))
	return radio.EvalCh(func(ch radio.Channel) cont {
		if d.parent < 0 {
			if rng.Bernoulli(ch.Rand(), p.P) {
				d.state = stateActive
			} else {
				d.state = stateWait
			}
		} else {
			d.state = -1 // unknown until announced
		}
		return d.downPassK(start,
			func() (any, bool) {
				if d.state >= 0 {
					return stateMsg{state: d.state}, true
				}
				return nil, false
			},
			func(m any) {
				if sm, ok := m.(stateMsg); ok && d.state < 0 {
					d.state = sm.state
				}
			}, body)
	})
}

// Proc returns the Theorem 20 device as a native inline step machine.
func Proc(p Params, isSource bool, msg any, out *DeviceResult) radio.Proc {
	return radio.ContProc(func(ch radio.Channel) cont {
		d := &pdev{p: p, index: ch.Index(), layer: 0, parent: -1, state: stateWait, newLayer: -1}
		d.colors = make([]int, p.C)
		for j := range d.colors {
			d.colors[j] = 1 + ch.Rand().IntN(p.K)
		}
		final := func(t uint64) cont {
			return radio.EvalCh(func(ch radio.Channel) cont {
				b := &cluster.Broadcaster{SR: p.SR, Layers: p.Layers,
					Label: d.layer, Has: isSource, Msg: msg}
				b.Reset(t, p.FinalD)
				return radio.ProcCont(b, radio.Do(func() {
					out.Informed = b.Has
					out.Msg = b.Msg
					out.Label = d.layer
					out.Parent = d.parent
				}, nil))
			})
		}
		var rounds func(r int, t uint64) cont
		rounds = func(r int, t uint64) cont {
			if r >= p.Outer {
				return final(t)
			}
			return d.outerRoundK(t, radio.Eval(func() cont { return rounds(r+1, t+p.outerSlots()) }))
		}
		// Initial Ind pass (everyone is a root; it only costs the schedule
		// its fixed window), then the outer rounds and closing Broadcast.
		return d.lemma19K(1, rounds(0, 1+p.lemma19Slots()))
	})
}
