package core

import (
	"fmt"

	"repro/internal/baseline"
	"repro/internal/cdmerge"
	"repro/internal/coloring"
	"repro/internal/dtime"
	"repro/internal/graph"
	"repro/internal/iterclust"
	"repro/internal/radio"
)

// sourceTag wraps the broadcast payload of one source so that receivers
// can attribute the copy they hold to the source it originated from. The
// protocols forward payloads opaquely, so the tag survives every relay.
type sourceTag struct {
	Src  int // index into the sources slice
	Body any
}

// sourceOf recovers the source index from a device's final message, or -1.
func sourceOf(msg any) int {
	if t, ok := msg.(sourceTag); ok {
		return t.Src
	}
	return -1
}

// multiPlan prepares a k-source broadcast (k >= 2): every source starts
// the protocol holding a tagged copy of the message and the copies race
// through the network, each vertex keeping whichever arrives first. The
// slot schedules are the same data-independent ones the single-source
// constructions use, so time and energy bounds carry over; the new
// measurement is the per-source informed fronts (Result.InformedBy).
// Unlike the single-source path, every multi-source run sees the trace
// sink — a historical quirk the planner preserves.
func multiPlan(g *graph.Graph, sources []int, algo Algorithm, cfg config) (plan, error) {
	n, delta := g.N(), g.MaxDegree()
	srcIdx := make(map[int]int, len(sources)) // vertex -> index into sources
	for i, s := range sources {
		srcIdx[s] = i
	}
	tagFor := func(v int) (bool, any) {
		if i, ok := srcIdx[v]; ok {
			return true, sourceTag{Src: i, Body: cfg.msg}
		}
		return false, nil
	}

	switch algo {
	case AlgoIterClust, AlgoTheorem12:
		var p iterclust.Params
		if algo == AlgoTheorem12 {
			if cfg.model != radio.CD {
				return plan{}, fmt.Errorf("core: Theorem 12 requires the CD model")
			}
			p = iterclust.NewTheorem12Params(n, delta, cfg.eps)
		} else {
			p = iterclust.NewParams(cfg.model, n, delta)
		}
		return plan{
			rcfg: radio.Config{Graph: g, Model: p.Model, Trace: cfg.trace, Sims: cfg.sims},
			build: func() ([]radio.Device, func(*radio.Result) *Result) {
				devs := make([]iterclust.DeviceResult, n)
				pop := make([]radio.Device, n)
				for v := 0; v < n; v++ {
					isSrc, tag := tagFor(v)
					pop[v].Proc = iterclust.Proc(p, isSrc, tag, &devs[v])
				}
				return pop, func(res *radio.Result) *Result {
					out := wrap(algo, cfg.model, res, informedOf(devs))
					return annotate(out, sources, func(v int) int { return sourceOf(devs[v].Msg) })
				}
			},
		}, nil

	case AlgoDiamTime:
		d, err := g.Diameter()
		if err != nil {
			return plan{}, err
		}
		p, err := dtime.NewParams(cfg.model, n, delta, d, cfg.eps)
		if err != nil {
			return plan{}, err
		}
		if cfg.lean {
			p = p.Tune(n, 10, 6, 10, 0)
		}
		return plan{
			rcfg: radio.Config{Graph: g, Model: p.SR.Model, Trace: cfg.trace,
				MaxSlots: 1 << 62, Sims: cfg.sims},
			build: func() ([]radio.Device, func(*radio.Result) *Result) {
				devs := make([]dtime.DeviceResult, n)
				pop := dtime.Devices(&p, devs, tagFor)
				return pop, func(res *radio.Result) *Result {
					inf := make([]bool, n)
					for v, dres := range devs {
						inf[v] = dres.Informed
					}
					out := wrap(algo, cfg.model, res, inf)
					return annotate(out, sources, func(v int) int { return sourceOf(devs[v].Msg) })
				}
			},
		}, nil

	case AlgoCDMerge:
		p, err := cdmerge.NewParams(n, delta, cfg.xi)
		if err != nil {
			return plan{}, err
		}
		if cfg.lean {
			p = p.Tune(10, 3, n)
		}
		return plan{
			rcfg: radio.Config{Graph: g, Model: radio.CD, Trace: cfg.trace,
				MaxSlots: 1 << 62, Sims: cfg.sims},
			build: func() ([]radio.Device, func(*radio.Result) *Result) {
				devs := make([]cdmerge.DeviceResult, n)
				procs := make([]radio.Proc, n)
				for v := 0; v < n; v++ {
					isSrc, tag := tagFor(v)
					procs[v] = cdmerge.Proc(p, isSrc, tag, &devs[v])
				}
				return radio.Procs(procs), func(res *radio.Result) *Result {
					inf := make([]bool, n)
					for v, dres := range devs {
						inf[v] = dres.Informed
					}
					out := wrap(algo, radio.CD, res, inf)
					return annotate(out, sources, func(v int) int { return sourceOf(devs[v].Msg) })
				}
			},
		}, nil

	case AlgoBoundedDegree:
		cp := coloring.NewParams(n, delta)
		ip := iterclust.NewParams(radio.Local, n, delta)
		return plan{
			rcfg: radio.Config{Graph: g, Model: radio.NoCD, Trace: cfg.trace,
				MaxSlots: 1 << 62, Sims: cfg.sims},
			build: func() ([]radio.Device, func(*radio.Result) *Result) {
				devs := make([]iterclust.DeviceResult, n)
				cres := make([]coloring.ColoringResult, n)
				pop := make([]radio.Device, n)
				for v := 0; v < n; v++ {
					isSrc, tag := tagFor(v)
					pop[v].Proc = coloring.SimulateProc(1, cp,
						iterclust.Proc(ip, isSrc, tag, &devs[v]), &cres[v])
				}
				return pop, func(res *radio.Result) *Result {
					out := wrap(algo, radio.NoCD, res, informedOf(devs))
					return annotate(out, sources, func(v int) int { return sourceOf(devs[v].Msg) })
				}
			},
		}, nil

	case AlgoBaselineDecay:
		d, err := g.Diameter()
		if err != nil {
			return plan{}, err
		}
		p := baseline.NewParams(n, delta, d)
		return plan{
			rcfg: radio.Config{Graph: g, Model: cfg.model, Trace: cfg.trace, Sims: cfg.sims},
			build: func() ([]radio.Device, func(*radio.Result) *Result) {
				devs := make([]baseline.DeviceResult, n)
				pop := make([]radio.Device, n)
				for v := 0; v < n; v++ {
					isSrc, tag := tagFor(v)
					pop[v].Proc = baseline.Proc(p, isSrc, tag, &devs[v])
				}
				return pop, func(res *radio.Result) *Result {
					inf := make([]bool, n)
					for v, dres := range devs {
						inf[v] = dres.Informed
					}
					out := wrap(algo, cfg.model, res, inf)
					return annotate(out, sources, func(v int) int { return sourceOf(devs[v].Msg) })
				}
			},
		}, nil

	case AlgoPath, AlgoDeterministic:
		return plan{}, fmt.Errorf("core: algorithm %v does not support multiple sources", algo)

	default:
		return plan{}, fmt.Errorf("core: unknown algorithm %v", algo)
	}
}

// annotate fills the multi-source fields: sources verbatim, and
// InformedBy from the per-device tag recovered by srcOf (clamped to the
// Informed flags so an uninformed vertex never claims a front).
func annotate(res *Result, sources []int, srcOf func(v int) int) *Result {
	res.Sources = append([]int(nil), sources...)
	res.InformedBy = make([]int, len(res.Informed))
	for v := range res.InformedBy {
		if res.Informed[v] {
			res.InformedBy[v] = srcOf(v)
		} else {
			res.InformedBy[v] = -1
		}
	}
	return res
}
