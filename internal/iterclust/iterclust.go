// Package iterclust implements the randomized iterative-clustering
// Broadcast algorithms of Section 5 of the paper:
//
//   - Theorem 11 (LOCAL, CD, No-CD): O(log n) refinement iterations with
//     p = 1/2 and s = 1 shrink the good labeling to a single root w.h.p.,
//     then the Lemma 10 Broadcast runs with d = 0. Time O(n log D log^2 n)
//     and energy O(log D log^2 n) in No-CD; O(n log n) time and O(log n)
//     energy in LOCAL; O(log^2 n) energy in CD (via the Remark 9
//     pre-check).
//   - Theorem 12 (CD): p = log^{-eps/2} n and s = log n reach at most
//     log n roots in O(log n / (eps log log n)) iterations, then Lemma 10
//     runs with d = log n, trading a log^eps n factor of time for an
//     eps log log n factor of energy.
//
// Every device executes the same slot layout derived from (n, Delta,
// model, parameters); no global coordinator exists.
package iterclust

import (
	"fmt"
	"math"

	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/labeling"
	"repro/internal/radio"
	"repro/internal/rng"
)

// Params configures one run; all fields are global knowledge.
type Params struct {
	// Model is the channel model (NoCD, CD, or Local).
	Model radio.Model
	// Iterations is the number of labeling refinements.
	Iterations int
	// S is the refinement sweep parameter s.
	S int
	// P is the probability a root keeps layer 0 in each refinement.
	P float64
	// FinalD is the G_L* diameter bound handed to the Lemma 10 Broadcast.
	FinalD int
	// Layers is the layer bound for sweeps (the paper uses n).
	Layers int
	// SR is the SR-communication window specification.
	SR cluster.Spec
	// Sims optionally reuses a per-goroutine simulator cache
	// (radio.SimCache). Purely an allocation optimization for repeated
	// runs on one topology; measurements and determinism are unaffected.
	Sims *radio.SimCache
}

// NewParams returns the Theorem 11 parameterization (p = 1/2, s = 1,
// Theta(log n) iterations, d = 0) for the given model.
func NewParams(model radio.Model, n, delta int) Params {
	return Params{
		Model:      model,
		Iterations: 6*rng.Log2Ceil(n) + 10,
		S:          1,
		P:          0.5,
		FinalD:     0,
		Layers:     n,
		SR:         cluster.NewSpec(model, n, delta),
	}
}

// NewTheorem12Params returns the Theorem 12 parameterization for the CD
// model: p = log^{-eps/2} n, s = ceil(log2 n), enough iterations to reach
// at most log n roots, and d = ceil(log2 n) for the final Broadcast.
func NewTheorem12Params(n, delta int, eps float64) Params {
	if eps <= 0 || eps >= 1 {
		eps = 0.5
	}
	logN := float64(rng.Log2Ceil(n) + 1)
	p := math.Pow(logN, -eps/2)
	// Iterations: shrink n roots to log n: log(n/log n)/log(1/p), padded.
	iters := int(math.Ceil(math.Log(float64(n))/math.Log(1/p))) + 4
	return Params{
		Model:      radio.CD,
		Iterations: iters,
		S:          rng.Log2Ceil(n) + 1,
		P:          p,
		FinalD:     rng.Log2Ceil(n) + 1,
		Layers:     n,
		SR:         cluster.NewSpec(radio.CD, n, delta),
	}
}

// Slots returns the exact total schedule length of a run.
func (p Params) Slots() uint64 {
	per := cluster.RefineSlots(p.SR, p.Layers, p.S)
	return uint64(p.Iterations)*per + cluster.BroadcastSlots(p.SR, p.Layers, p.FinalD)
}

// DeviceResult is one device's view after the protocol.
type DeviceResult struct {
	// Informed reports whether the device holds the broadcast message.
	Informed bool
	// Msg is the received message (nil if not informed).
	Msg any
	// Label is the device's final good-labeling layer.
	Label int
}

// RunCont is the continuation form of the device side of the protocol
// starting at slot 1: Iterations labeling refinements followed by the
// Lemma 10 Broadcast, resuming with k when the schedule ends. isSource
// marks the broadcasting vertex (which holds msg); out is complete
// before k resumes. The same continuation runs on the physical network
// or through the Theorem 3 LOCAL-over-No-CD simulation (Corollary 13).
func RunCont(p Params, isSource bool, msg any, out *DeviceResult, k radio.Cont) radio.Cont {
	per := cluster.RefineSlots(p.SR, p.Layers, p.S)
	lab := 0 // the trivial all-zero good labeling
	var iter func(it int, t uint64) radio.Cont
	iter = func(it int, t uint64) radio.Cont {
		if it == p.Iterations {
			b := &cluster.Broadcaster{SR: p.SR, Layers: p.Layers}
			b.Reset(t, p.FinalD)
			return radio.Do(func() {
				b.Label, b.Has, b.Msg = lab, isSource, msg
			}, radio.ProcCont(b, radio.Do(func() {
				out.Informed = b.Has
				out.Msg = b.Msg
				out.Label = lab
			}, k)))
		}
		r := &cluster.Refiner{SR: p.SR, Layers: p.Layers}
		return radio.EvalCh(func(ch radio.Channel) radio.Cont {
			becomeRoot := lab == 0 && rng.Bernoulli(ch.Rand(), p.P)
			r.Old = lab
			return r.RefineCont(t, p.S, becomeRoot,
				radio.Do(func() { lab = r.New }, iter(it+1, t+per)))
		})
	}
	return iter(0, 1)
}

// Proc returns the device step machine for one device. isSource marks
// the broadcasting vertex (which holds msg); out receives the device's
// final state.
func Proc(p Params, isSource bool, msg any, out *DeviceResult) radio.Proc {
	return radio.ContProc(func(ch radio.Channel) radio.Cont {
		return RunCont(p, isSource, msg, out, nil)
	})
}

// Outcome aggregates a whole-network run.
type Outcome struct {
	// Result is the simulator's measurement.
	Result *radio.Result
	// Devices holds the per-device final states.
	Devices []DeviceResult
	// Labels is the final good labeling (for validation).
	Labels labeling.Labeling
}

// AllInformed reports whether every device holds the message.
func (o *Outcome) AllInformed() bool {
	for _, d := range o.Devices {
		if !d.Informed {
			return false
		}
	}
	return true
}

// Roots returns the number of layer-0 vertices in the final labeling.
func (o *Outcome) Roots() int {
	return len(o.Labels.Roots())
}

// Broadcast runs the full algorithm on g from the given source vertex.
func Broadcast(g *graph.Graph, source int, msg any, p Params, seed uint64) (*Outcome, error) {
	if source < 0 || source >= g.N() {
		return nil, fmt.Errorf("iterclust: source %d out of range", source)
	}
	n := g.N()
	devs := make([]DeviceResult, n)
	pop := make([]radio.Device, n)
	for v := 0; v < n; v++ {
		pop[v].Proc = Proc(p, v == source, msg, &devs[v])
	}
	res, err := radio.RunDevices(radio.Config{Graph: g, Model: p.Model, Seed: seed, Sims: p.Sims}, pop)
	if err != nil {
		return nil, err
	}
	labels := make(labeling.Labeling, n)
	for v := range labels {
		labels[v] = devs[v].Label
	}
	return &Outcome{Result: res, Devices: devs, Labels: labels}, nil
}
