package radio

// This file exports the continuation-combinator vocabulary for porting
// blocking protocols to the step ABI. detcast introduced the style with
// package-private helpers; cdmerge, iterclust, partition and coloring
// build on these exported forms, and cluster keeps continuation forms
// for them (Window.SendCont and ReceiveCont, Spec.SkipCont, and the
// Refiner's sweeps). Every closure here is allocated per use, so hot protocols
// are written as flat step machines instead (dtime's device machine,
// cluster.Window and cluster.Broadcaster), which continuation code
// nests with ProcCont.
//
// The discipline the combinators encode: assemble the slot schedule (a
// pure function of the protocol parameters) eagerly as a continuation
// tree, but defer every read of mutable device state into an Eval thunk
// that runs at its window's start — reproducing the evaluation order of
// the blocking implementation exactly, which is what makes proc-vs-
// blocking trace pinning possible.

// Then performs a, then resumes with k.
func Then(a Action, k Cont) Cont {
	return func(Channel, Feedback) (Action, Cont) { return a, k }
}

// Recv listens at slot and hands the feedback to f, which returns the
// continuation to resume with (nil halts).
func Recv(slot uint64, f func(Feedback) Cont) Cont {
	return func(Channel, Feedback) (Action, Cont) {
		return Listen(slot), bindFeedback(f)
	}
}

// bindFeedback adapts a feedback consumer into a continuation.
func bindFeedback(f func(Feedback) Cont) Cont {
	return func(ch Channel, fb Feedback) (Action, Cont) {
		k := f(fb)
		if k == nil {
			return Halt(), nil
		}
		return k(ch, fb)
	}
}

// Eval defers building the continuation until the moment it runs — the
// mechanism that keeps every read of mutable device state at the
// blocking implementation's evaluation point even though the
// surrounding continuation tree is assembled eagerly. A nil result
// halts.
func Eval(f func() Cont) Cont {
	return func(ch Channel, fb Feedback) (Action, Cont) {
		k := f()
		if k == nil {
			return Halt(), nil
		}
		return k(ch, fb)
	}
}

// EvalCh is Eval with access to the channel handle, for deferred state
// that needs the device's identity or random stream (the blocking form's
// Env reads). A nil result halts.
func EvalCh(f func(ch Channel) Cont) Cont {
	return func(ch Channel, fb Feedback) (Action, Cont) {
		k := f(ch)
		if k == nil {
			return Halt(), nil
		}
		return k(ch, fb)
	}
}

// Do runs a side effect, then resumes with k.
func Do(f func(), k Cont) Cont {
	return Eval(func() Cont {
		f()
		return k
	})
}

// ProcCont drives a sub-proc to completion inside a continuation chain,
// then resumes with k — the nesting adapter that lets a ported protocol
// reuse srcomm's SR-communication step machines exactly where its
// blocking form called the Drive-based wrappers. The sub-proc's halt is
// consumed (it ends the sub-window, not the device); k must not expect
// feedback from it (SR machines end on a sleep, so none exists).
func ProcCont(p Proc, k Cont) Cont {
	var c Cont
	c = func(ch Channel, fb Feedback) (Action, Cont) {
		act := p.Step(ch, fb)
		if act.Kind == ActHalt {
			if k == nil {
				return Halt(), nil
			}
			return k(ch, fb)
		}
		return act, c
	}
	return c
}
