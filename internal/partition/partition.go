// Package partition implements Partition(beta), the Miller-Peng-Xu
// random-shift clustering of Section 6 (as adapted to radio networks by
// Haeupler and Wajc): every vertex draws delta_v ~ Exponential(beta) and
// conceptually joins the cluster of the center u minimizing
// dist(u,v) - delta_u.
//
// The distributed implementation runs 2 log n / beta epochs. A vertex
// whose start time start_v = T - ceil(delta_v) has arrived and which is
// still unclustered becomes a cluster center; during every epoch one
// SR-communication lets clustered vertices recruit unclustered neighbors.
// The resulting cluster assignment doubles as a good labeling (the layer
// is the recruitment depth), which is what the Theorem 16 algorithm
// iterates on.
//
// Key properties (Lemma 14, verified statistically in tests and benches):
// an edge is cut between clusters with probability at most 2*beta, and
// the cluster-graph diameter contracts to <= 3*beta*D w.h.p. (Lemma 15).
package partition

import (
	"fmt"
	"math"

	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/labeling"
	"repro/internal/radio"
	"repro/internal/rng"
)

// Params configures one Partition(beta) run; all fields are global
// knowledge.
type Params struct {
	// Beta is the exponential rate (0 < Beta < 1).
	Beta float64
	// Epochs is the round count T (the paper's 2 log n / beta).
	Epochs int
	// SR is the per-epoch SR-communication window.
	SR cluster.Spec
	// Sims optionally reuses a per-goroutine simulator cache
	// (radio.SimCache). Purely an allocation optimization for repeated
	// runs on one topology; measurements and determinism are unaffected.
	Sims *radio.SimCache
}

// NewParams returns the standard parameterization for an n-vertex,
// degree-delta network under the given model.
func NewParams(model radio.Model, n, delta int, beta float64) (Params, error) {
	if beta <= 0 || beta >= 1 {
		return Params{}, fmt.Errorf("partition: beta %v outside (0,1)", beta)
	}
	logN := float64(rng.Log2Ceil(n) + 1)
	t := int(math.Ceil(2 * logN / beta))
	if t < 2 {
		t = 2
	}
	return Params{
		Beta:   beta,
		Epochs: t,
		SR:     cluster.NewSpec(model, n, delta),
	}, nil
}

// Slots returns the total window length of the protocol.
func (p Params) Slots() uint64 {
	return uint64(p.Epochs) * p.SR.Slots()
}

// Result is one device's outcome.
type Result struct {
	// Cluster is the cluster id (the center's vertex index).
	Cluster int
	// Layer is the device's recruitment depth (0 for centers) — a good
	// labeling across the graph.
	Layer int
	// Delta is the device's exponential shift delta_v.
	Delta float64
	// Start is the device's start epoch (1-based).
	Start int
}

// msg is the recruitment payload.
type msg struct {
	cluster int
	layer   int
}

// RunCont is the continuation form of the device side of Partition(beta)
// in the window [start, start+Slots()), resuming with k when the window
// ends. The exponential shift is drawn when the continuation first runs;
// out is complete (every device clustered) before k resumes.
func RunCont(p Params, start uint64, out *Result, k radio.Cont) radio.Cont {
	w := p.SR.Slots()
	return radio.EvalCh(func(ch radio.Channel) radio.Cont {
		delta := rng.Exponential(ch.Rand(), p.Beta)
		st := p.Epochs - int(math.Ceil(delta))
		if st < 1 {
			st = 1
		}
		*out = Result{Cluster: -1, Delta: delta, Start: st}
		finish := radio.Do(func() {
			if out.Cluster < 0 {
				// Start time never arrived while unclustered (cannot happen:
				// start <= Epochs forces self-start), but stay safe.
				out.Cluster = ch.Index()
				out.Layer = 0
			}
		}, k)
		var win cluster.Window // the device's SR window, reused every epoch
		var epoch func(t int) radio.Cont
		epoch = func(t int) radio.Cont {
			if t > p.Epochs {
				return finish
			}
			ws := start + uint64(t-1)*w
			next := radio.Eval(func() radio.Cont { return epoch(t + 1) })
			return radio.Eval(func() radio.Cont {
				if out.Cluster < 0 && out.Start == t {
					// Become the center of a fresh cluster.
					out.Cluster = ch.Index()
					out.Layer = 0
				}
				if out.Cluster >= 0 {
					return win.SendCont(&p.SR, ws, func() any {
						return msg{cluster: out.Cluster, layer: out.Layer}
					}, next)
				}
				return win.ReceiveCont(&p.SR, ws, func(m any, ok bool) {
					if ok {
						if mm, isMsg := m.(msg); isMsg {
							out.Cluster = mm.cluster
							out.Layer = mm.layer + 1
						}
					}
				}, next)
			})
		}
		return epoch(1)
	})
}

// Proc returns the device step machine executing Partition(beta) in the
// window [start, start+Slots()). Every device ends clustered; the device
// halts when the window ends.
func Proc(p Params, start uint64, out *Result) radio.Proc {
	return radio.ContProc(func(ch radio.Channel) radio.Cont {
		return RunCont(p, start, out, nil)
	})
}

// Outcome aggregates a whole-graph run.
type Outcome struct {
	Result  *radio.Result
	Devices []Result
	// Labels is the induced good labeling.
	Labels labeling.Labeling
}

// Clusters returns the distinct cluster ids.
func (o *Outcome) Clusters() []int {
	seen := make(map[int]bool)
	var out []int
	for _, d := range o.Devices {
		if !seen[d.Cluster] {
			seen[d.Cluster] = true
			out = append(out, d.Cluster)
		}
	}
	return out
}

// CutEdges returns the number of graph edges whose endpoints lie in
// different clusters.
func (o *Outcome) CutEdges(g *graph.Graph) int {
	cut := 0
	for v := 0; v < g.N(); v++ {
		for _, u := range g.Neighbors(v) {
			if u > v && o.Devices[v].Cluster != o.Devices[u].Cluster {
				cut++
			}
		}
	}
	return cut
}

// ClusterGraph contracts each cluster to a vertex and returns the
// resulting graph plus the cluster ids in index order.
func (o *Outcome) ClusterGraph(g *graph.Graph) (*graph.Graph, []int) {
	ids := o.Clusters()
	idx := make(map[int]int, len(ids))
	for i, c := range ids {
		idx[c] = i
	}
	cg := graph.New(len(ids))
	for v := 0; v < g.N(); v++ {
		for _, u := range g.Neighbors(v) {
			cv, cu := idx[o.Devices[v].Cluster], idx[o.Devices[u].Cluster]
			if cv != cu && !cg.HasEdge(cv, cu) {
				if err := cg.AddEdge(cv, cu); err != nil {
					panic(err)
				}
			}
		}
	}
	cg.SetName(fmt.Sprintf("partition-of-%s", g.Name()))
	return cg, ids
}

// Partition runs Partition(beta) on g and returns the outcome.
func Partition(g *graph.Graph, p Params, seed uint64) (*Outcome, error) {
	n := g.N()
	devs := make([]Result, n)
	pop := make([]radio.Device, n)
	for v := 0; v < n; v++ {
		pop[v].Proc = Proc(p, 1, &devs[v])
	}
	res, err := radio.RunDevices(radio.Config{Graph: g, Model: p.SR.Model, Seed: seed, Sims: p.Sims}, pop)
	if err != nil {
		return nil, err
	}
	labels := make(labeling.Labeling, n)
	for v := range labels {
		labels[v] = devs[v].Layer
	}
	return &Outcome{Result: res, Devices: devs, Labels: labels}, nil
}
