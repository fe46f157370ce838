// Command energybench runs the full evaluation suite: one experiment per
// row of the paper's Table 1 (plus the Partition(beta) lemmas and the
// decay baseline), printing measured time (slots) and energy
// (max transmit+listen per device) across size sweeps together with
// fitted growth shapes.
//
// Usage:
//
//	energybench [-quick] [-seeds k] [-workers n] [-manifest run.manifest.json]
//
// -manifest writes a run manifest (see internal/telemetry): trial
// counts, simulated-slot totals, and one timed phase per suite row, so
// a recorded evaluation carries its own provenance.
package main

import (
	"flag"
	"fmt"
	"os"
	"sync"

	"repro/internal/baseline"
	"repro/internal/cdmerge"
	"repro/internal/core"
	"repro/internal/dtime"
	"repro/internal/graph"
	"repro/internal/iterclust"
	"repro/internal/leader"
	"repro/internal/partition"
	"repro/internal/pathcast"
	"repro/internal/radio"
	"repro/internal/stats"
	"repro/internal/sweep"
	"repro/internal/telemetry"
)

var (
	quick    = flag.Bool("quick", false, "smaller sweeps")
	seeds    = flag.Int("seeds", 3, "trials per configuration")
	workers  = flag.Int("workers", 0, "parallel trials per configuration (0 = GOMAXPROCS)")
	manifest = flag.String("manifest", "", "write a run manifest (trial counts, per-row phase timings) to this file")

	// rec collects suite telemetry when -manifest asks for it; nil (all
	// hooks no-op) otherwise.
	rec *telemetry.Recorder
)

func main() {
	flag.Parse()
	if *manifest != "" {
		rec = telemetry.New()
	}
	fmt.Println("The Energy Complexity of Broadcast (PODC 2018) — measured reproduction")
	fmt.Println()
	// One timed manifest phase per suite row.
	for _, row := range []struct {
		name string
		fn   func()
	}{
		{"iterclust", rowIterClust},
		{"theorem12", rowTheorem12},
		{"cdmerge", rowCDMerge},
		{"diamtime", rowDiamTime},
		{"bounded-degree", rowBoundedDegree},
		{"path", rowPath},
		{"deterministic", rowDeterministic},
		{"lower-bounds", rowLowerBounds},
		{"partition", rowPartition},
		{"baseline", rowBaselineComparison},
		{"workload-sweeps", rowWorkloadSweeps},
	} {
		rec.Phase(row.name)
		row.fn()
	}
	if *manifest != "" {
		m := rec.BuildManifest("energybench", map[string]any{
			"quick": *quick, "seeds": *seeds,
		}, nil, *workers)
		if err := m.WriteFile(*manifest); err != nil {
			fmt.Fprintln(os.Stderr, "energybench:", err)
			os.Exit(1)
		}
	}
}

func sizes(full []int, quickSizes []int) []int {
	if *quick {
		return quickSizes
	}
	return full
}

// measure runs fn over the seeds on the sweep engine's worker pool and
// returns mean slots and mean max energy (failing runs are skipped; at
// least one must succeed). Trials execute in parallel but samples are
// aggregated in seed order, so the output is identical to the old
// sequential loop.
func measure(fn func(seed uint64) (uint64, int, bool)) (float64, float64) {
	type sample struct{ slots, maxE float64 }
	out := sweep.CollectTrials(*seeds, *workers, func(i int) (sample, bool) {
		slots, maxE, ok := fn(uint64(i + 1))
		return sample{float64(slots), float64(maxE)}, ok
	})
	if len(out) == 0 {
		return 0, 0
	}
	ts := make([]float64, len(out))
	es := make([]float64, len(out))
	var slotSum float64
	for i, s := range out {
		ts[i], es[i] = s.slots, s.maxE
		slotSum += s.slots
	}
	rec.Add(len(out), uint64(slotSum))
	return stats.Mean(ts), stats.Mean(es)
}

func fitNote(ns, slot, energy []float64) string {
	return fmt.Sprintf("growth: time ~ n^%.2f, energy ~ n^%.2f",
		stats.LogLogSlope(ns, slot), stats.LogLogSlope(ns, energy))
}

func rowIterClust() {
	fmt.Println("== T1-R1 / T1-R8: randomized iterative clustering (Theorem 11) ==")
	fmt.Println("   paper: LOCAL O(n log n) time / O(log n) energy;")
	fmt.Println("          No-CD O(n logD log^2 n) time / O(logD log^2 n) energy")
	tbl := &stats.Table{Header: []string{"model", "graph", "n", "slots", "maxE"}}
	var ns, tl, el, tn, en []float64
	for _, n := range sizes([]int{16, 32, 64, 128}, []int{16, 32}) {
		g := graph.GNP(n, 4.0/float64(n)*2, 11)
		for _, model := range []radio.Model{radio.Local, radio.NoCD} {
			p := iterclust.NewParams(model, g.N(), g.MaxDegree())
			slots, maxE := measure(func(seed uint64) (uint64, int, bool) {
				out, err := iterclust.Broadcast(g, 0, "m", p, seed)
				if err != nil || !out.AllInformed() {
					return 0, 0, false
				}
				return out.Result.Slots, out.Result.MaxEnergy(), true
			})
			tbl.Add(model.String(), g.Name(), n, slots, maxE)
			if model == radio.Local {
				ns = append(ns, float64(n))
				tl, el = append(tl, slots), append(el, maxE)
			} else {
				tn, en = append(tn, slots), append(en, maxE)
			}
		}
	}
	fmt.Print(tbl)
	fmt.Println("   LOCAL " + fitNote(ns, tl, el))
	fmt.Println("   No-CD " + fitNote(ns, tn, en))
	fmt.Println()
}

func rowTheorem12() {
	fmt.Println("== T1-R5: CD iterative clustering (Theorem 12) ==")
	fmt.Println("   paper: O(n logD log^{2+eps} n/(eps loglog n)) time, O(log^2 n/(eps loglog n)) energy")
	tbl := &stats.Table{Header: []string{"graph", "n", "slots", "maxE"}}
	var ns, ts, es []float64
	for _, n := range sizes([]int{16, 32, 64, 128}, []int{16, 32}) {
		g := graph.GNP(n, 8.0/float64(n), 13)
		p := iterclust.NewTheorem12Params(g.N(), g.MaxDegree(), 0.5)
		slots, maxE := measure(func(seed uint64) (uint64, int, bool) {
			out, err := iterclust.Broadcast(g, 0, "m", p, seed)
			if err != nil || !out.AllInformed() {
				return 0, 0, false
			}
			return out.Result.Slots, out.Result.MaxEnergy(), true
		})
		tbl.Add(g.Name(), n, slots, maxE)
		ns, ts, es = append(ns, float64(n)), append(ts, slots), append(es, maxE)
	}
	fmt.Print(tbl)
	fmt.Println("   " + fitNote(ns, ts, es))
	fmt.Println()
}

func rowCDMerge() {
	fmt.Println("== T1-R6: CD merge algorithm (Theorem 20) ==")
	fmt.Println("   paper: O(Delta n^{1+xi}) time, O(log n(loglogD+1/xi)/logloglogD) energy")
	tbl := &stats.Table{Header: []string{"graph", "n", "slots", "maxE"}}
	var ns, ts, es []float64
	for _, n := range sizes([]int{12, 16, 24, 32}, []int{12, 16}) {
		g := graph.GNP(n, 6.0/float64(n), 17)
		p, err := cdmerge.NewParams(g.N(), g.MaxDegree(), 0.5)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			continue
		}
		p = p.Tune(10, 3, g.N())
		slots, maxE := measure(func(seed uint64) (uint64, int, bool) {
			out, err := cdmerge.Broadcast(g, 0, "m", p, seed)
			if err != nil || !out.AllInformed() {
				return 0, 0, false
			}
			return out.Result.Slots, out.Result.MaxEnergy(), true
		})
		tbl.Add(g.Name(), n, slots, maxE)
		ns, ts, es = append(ns, float64(n)), append(ts, slots), append(es, maxE)
	}
	fmt.Print(tbl)
	fmt.Println("   " + fitNote(ns, ts, es))
	fmt.Println("   (time is super-linear by design; energy stays polylog)")
	fmt.Println()
}

func rowDiamTime() {
	fmt.Println("== T1-R2: near-diameter time (Theorem 16) ==")
	fmt.Println("   paper: O(D^{1+eps} polylog n) time, O(polylog n) energy")
	fmt.Println("   shape check: on constant-diameter stars, time should grow far")
	fmt.Println("   slower than the Theta(n polylog) of iterative clustering.")
	tbl := &stats.Table{Header: []string{"graph", "n", "D", "dtime slots", "dtime maxE", "iterclust slots"}}
	for _, n := range sizes([]int{16, 32, 64}, []int{16, 32}) {
		g := graph.Star(n)
		p, err := dtime.NewParams(radio.CD, g.N(), g.MaxDegree(), 2, 0.5)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			continue
		}
		p = p.Tune(g.N(), 10, 6, 10, 1)
		slots, maxE := measure(func(seed uint64) (uint64, int, bool) {
			out, err := dtime.Broadcast(g, 0, "m", p, seed)
			if err != nil || !out.AllInformed() {
				return 0, 0, false
			}
			return out.Result.Slots, out.Result.MaxEnergy(), true
		})
		ip := iterclust.NewParams(radio.CD, g.N(), g.MaxDegree())
		icSlots, _ := measure(func(seed uint64) (uint64, int, bool) {
			out, err := iterclust.Broadcast(g, 0, "m", ip, seed)
			if err != nil || !out.AllInformed() {
				return 0, 0, false
			}
			return out.Result.Slots, out.Result.MaxEnergy(), true
		})
		tbl.Add(g.Name(), n, 2, slots, maxE, icSlots)
	}
	fmt.Print(tbl)
	fmt.Println()
}

func rowBoundedDegree() {
	fmt.Println("== T1-R3: bounded degree No-CD via LOCAL simulation (Corollary 13) ==")
	fmt.Println("   paper: O(n log n) time, O(log n) energy for Delta = O(1)")
	tbl := &stats.Table{Header: []string{"graph", "n", "slots", "maxE"}}
	var ns, ts, es []float64
	for _, n := range sizes([]int{12, 16, 24, 32}, []int{12, 16}) {
		g := graph.Cycle(n)
		slots, maxE := measure(func(seed uint64) (uint64, int, bool) {
			res, err := core.Broadcast(g, 0, core.WithAlgorithm(core.AlgoBoundedDegree),
				core.WithSeed(seed))
			if err != nil || !res.AllInformed() {
				return 0, 0, false
			}
			return res.Slots, res.MaxEnergy(), true
		})
		tbl.Add(g.Name(), n, slots, maxE)
		ns, ts, es = append(ns, float64(n)), append(ts, slots), append(es, maxE)
	}
	fmt.Print(tbl)
	fmt.Println("   " + fitNote(ns, ts, es))
	fmt.Println()
}

func rowPath() {
	fmt.Println("== Theorem 21 / Figure 1: the path algorithm ==")
	fmt.Println("   paper: worst-case 2n time, expected O(log n) per-vertex energy")
	tbl := &stats.Table{Header: []string{"n", "max recv slot", "2n bound", "mean E", "max E"}}
	var ns, es []float64
	for _, n := range sizes([]int{32, 64, 128, 256, 512}, []int{32, 128}) {
		g := graph.Path(n)
		type sample struct{ recv, meanE, maxE float64 }
		samples := sweep.CollectTrials(*seeds, *workers, func(i int) (sample, bool) {
			out, err := pathcast.Broadcast(g, 0, "m", pathcast.Params{}, uint64(i+1), nil)
			if err != nil || !out.AllInformed() {
				return sample{}, false
			}
			return sample{
				recv:  float64(out.MaxReceiveSlot()),
				meanE: float64(out.Result.TotalEnergy()) / float64(n),
				maxE:  float64(out.Result.MaxEnergy()),
			}, true
		})
		rec.Add(len(samples), 0)
		var recv, meanE, maxE []float64
		for _, s := range samples {
			recv = append(recv, s.recv)
			meanE = append(meanE, s.meanE)
			maxE = append(maxE, s.maxE)
		}
		tbl.Add(n, stats.Max(recv), 2*n, stats.Mean(meanE), stats.Max(maxE))
		ns, es = append(ns, float64(n)), append(es, stats.Mean(meanE))
	}
	fmt.Print(tbl)
	fmt.Printf("   mean-energy growth: ~ n^%.2f (logarithmic => near 0)\n", stats.LogLogSlope(ns, es))
	fmt.Println()
}

func rowDeterministic() {
	fmt.Println("== T1-R11 / T1-R12: deterministic algorithms (Theorems 25, 27) ==")
	fmt.Println("   paper: LOCAL O(n log n logN) time / O(log n logN) energy;")
	fmt.Println("          CD O(N^2 n log n logN) time / O(log^3 N log n) energy")
	tbl := &stats.Table{Header: []string{"model", "graph", "n", "slots", "maxE"}}
	for _, n := range sizes([]int{8, 12, 16, 24}, []int{8, 12}) {
		g := graph.GNP(n, 6.0/float64(n), 23)
		for _, model := range []radio.Model{radio.Local, radio.CD} {
			res, err := core.Broadcast(g, 0, core.WithModel(model),
				core.WithAlgorithm(core.AlgoDeterministic))
			if err != nil || !res.AllInformed() {
				tbl.Add(model.String(), g.Name(), n, "failed", "-")
				continue
			}
			tbl.Add(model.String(), g.Name(), n, res.Slots, res.MaxEnergy())
		}
	}
	fmt.Print(tbl)
	fmt.Println()
}

func rowLowerBounds() {
	fmt.Println("== T1-R4/R7/R9: lower-bound experiments ==")
	fmt.Println("   Theorem 2: Broadcast energy on K_{2,k} is at least half the")
	fmt.Println("   single-hop LeaderElection time; Theorem 1: Omega(log n) on paths.")
	tbl := &stats.Table{Header: []string{"experiment", "param", "measured", "bound side"}}
	for _, k := range sizes([]int{4, 8, 16, 32}, []int{4, 16}) {
		g := graph.K2k(k)
		p := iterclust.NewParams(radio.CD, g.N(), g.MaxDegree())
		_, maxE := measure(func(seed uint64) (uint64, int, bool) {
			out, err := iterclust.Broadcast(g, 0, "m", p, seed)
			if err != nil || !out.AllInformed() {
				return 0, 0, false
			}
			return out.Result.Slots, out.Result.MaxEnergy(), true
		})
		// Single-hop CD leader election time on a k-clique for reference.
		le := measureLE(k)
		tbl.Add("K2k CD energy vs LE time", k, maxE, le)
	}
	// Theorem 1 on paths: worst-vertex energy of the best path algorithm.
	for _, n := range sizes([]int{64, 256, 1024}, []int{64, 256}) {
		g := graph.Path(n)
		_, maxE := measure(func(seed uint64) (uint64, int, bool) {
			out, err := pathcast.Broadcast(g, 0, "m", pathcast.Params{}, seed, nil)
			if err != nil || !out.AllInformed() {
				return 0, 0, false
			}
			return out.Result.Slots, out.Result.MaxEnergy(), true
		})
		tbl.Add("path worst-vertex energy", n, maxE, fmt.Sprintf("Omega(log n)=%d/5", logi(n)))
	}
	fmt.Print(tbl)
	fmt.Println()
}

func logi(n int) int {
	l := 0
	for v := 1; v < n; v *= 2 {
		l++
	}
	return l
}

// simCaches hands each concurrent trial a private simulator cache so
// same-topology trials reuse one preallocated engine (the pool is
// per-P, so caches never cross goroutines mid-trial).
var simCaches = sync.Pool{New: func() any { return &radio.SimCache{} }}

func measureLE(k int) float64 {
	g := graph.Clique(k) // shared read-only across trials
	ts := sweep.CollectTrials(*seeds, *workers, func(i int) (float64, bool) {
		sims := simCaches.Get().(*radio.SimCache)
		defer simCaches.Put(sims)
		outs := make([]leader.Outcome, k)
		pop := make([]radio.Device, k)
		for j := 0; j < k; j++ {
			pop[j].Proc = leader.ElectCDProc(1, true, k, 4000, &outs[j])
		}
		if _, err := radio.RunDevices(radio.Config{Graph: g, Model: radio.CD, Seed: uint64(i + 1), Sims: sims}, pop); err != nil {
			return 0, false
		}
		return float64(outs[0].Slot), true
	})
	rec.Add(len(ts), 0)
	return stats.Mean(ts)
}

func rowPartition() {
	fmt.Println("== Lemmas 14-15: Partition(beta) ==")
	fmt.Println("   paper: P[edge cut] <= 2 beta; cluster diameter <= 3 beta D w.h.p.")
	tbl := &stats.Table{Header: []string{"beta", "graph", "cut fraction", "2*beta", "D", "cluster D"}}
	g := graph.Grid(8, 8)
	d0, _ := g.Diameter()
	for _, beta := range []float64{0.15, 0.3, 0.6} {
		type sample struct {
			cut, cd float64
			okCD    bool
		}
		samples := sweep.CollectTrials(*seeds, *workers, func(i int) (sample, bool) {
			p, err := partition.NewParams(radio.Local, g.N(), g.MaxDegree(), beta)
			if err != nil {
				return sample{}, false
			}
			out, err := partition.Partition(g, p, uint64(i+1))
			if err != nil {
				return sample{}, false
			}
			s := sample{cut: float64(out.CutEdges(g)) / float64(g.M())}
			cg, _ := out.ClusterGraph(g)
			if cg.N() > 0 {
				if cd, err := cg.Diameter(); err == nil {
					s.cd, s.okCD = float64(cd), true
				}
			}
			return s, true
		})
		rec.Add(len(samples), 0)
		var cuts, cds []float64
		for _, s := range samples {
			cuts = append(cuts, s.cut)
			if s.okCD {
				cds = append(cds, s.cd)
			}
		}
		tbl.Add(beta, g.Name(), stats.Mean(cuts), 2*beta, d0, stats.Mean(cds))
	}
	fmt.Print(tbl)
	fmt.Println()
}

// rowWorkloadSweeps exercises the pluggable-workload engine: Lemma 8's
// leader-election subroutine measured directly (success rate, time and
// energy of the single-hop elections the broadcast algorithms build on),
// the Theorem 16 beta dial as a sweep grid, and k-source broadcast with
// per-source informed fronts.
func rowWorkloadSweeps() {
	fmt.Println("== Workload sweeps: leader election, time/energy dial, k-source ==")
	fmt.Println("   paper: single-hop election is the broadcast subroutine (Lemma 8);")
	fmt.Println("   Theorem 16's beta trades time for energy on one frontier.")
	runSweep := func(spec sweep.Spec) {
		spec.Trials = *seeds
		spec.MasterSeed = 1
		// The engine's own instrumentation counts these trials; the
		// recorder's cell table ends up reflecting the last sweep run.
		rep, err := sweep.Run(spec, sweep.Options{Workers: *workers, Telemetry: rec})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return
		}
		fmt.Print(rep.Table())
	}
	cliques := []sweep.Topology{{Kind: "clique", N: 16}, {Kind: "clique", N: 64}}
	if *quick {
		cliques = cliques[:1]
	}
	runSweep(sweep.Spec{
		Topologies:     cliques,
		Models:         []radio.Model{radio.CD, radio.NoCD},
		Workload:       "leader",
		WorkloadParams: map[string]string{"proto": "rand,det"},
	})
	runSweep(sweep.Spec{
		Topologies: []sweep.Topology{{Kind: "star", N: 24}},
		Models:     []radio.Model{radio.CD},
		Workload:   "tradeoff",
		Lean:       true,
	})
	runSweep(sweep.Spec{
		Topologies:     []sweep.Topology{{Kind: "cycle", N: 32}},
		Models:         []radio.Model{radio.Local},
		Workload:       "msrc",
		WorkloadParams: map[string]string{"k": "2,4"},
	})
	fmt.Println()
}

func rowBaselineComparison() {
	fmt.Println("== Baseline: BGI decay broadcast vs the paper's algorithms ==")
	fmt.Println("   shape: decay wins on time, loses on energy, with the energy gap")
	fmt.Println("   growing with n.")
	tbl := &stats.Table{Header: []string{"graph", "n", "decay slots", "decay maxE", "paper slots", "paper maxE"}}
	for _, n := range sizes([]int{32, 64, 128}, []int{32, 64}) {
		g := graph.Path(n)
		d, _ := g.Diameter()
		bp := baseline.NewParams(g.N(), g.MaxDegree(), d)
		bSlots, bE := measure(func(seed uint64) (uint64, int, bool) {
			out, err := baseline.Broadcast(g, 0, "m", bp, seed, radio.NoCD)
			if err != nil || !out.AllInformed() {
				return 0, 0, false
			}
			return out.Result.Slots, out.Result.MaxEnergy(), true
		})
		pSlots, pE := measure(func(seed uint64) (uint64, int, bool) {
			out, err := pathcast.Broadcast(g, 0, "m", pathcast.Params{}, seed, nil)
			if err != nil || !out.AllInformed() {
				return 0, 0, false
			}
			return out.Result.Slots, out.Result.MaxEnergy(), true
		})
		tbl.Add(g.Name(), n, bSlots, bE, pSlots, pE)
	}
	fmt.Print(tbl)
	fmt.Println()
}
