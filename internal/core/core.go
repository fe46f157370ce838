// Package core is the library's public façade: one Broadcast entry point
// covering every algorithm in the paper, selected and parameterized with
// functional options.
//
// The zero-configuration call
//
//	res, err := core.Broadcast(g, source)
//
// runs the paper's best general algorithm for the default model (No-CD,
// randomized) and reports slot count and per-device energy — the paper's
// two complexity measures.
package core

import (
	"fmt"

	"repro/internal/baseline"
	"repro/internal/cdmerge"
	"repro/internal/coloring"
	"repro/internal/detcast"
	"repro/internal/dtime"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/iterclust"
	"repro/internal/pathcast"
	"repro/internal/radio"
)

// Algorithm identifies a Broadcast algorithm from the paper.
type Algorithm int

// The implemented algorithms.
const (
	// AlgoAuto picks the paper's best algorithm for the chosen model and
	// topology.
	AlgoAuto Algorithm = iota
	// AlgoIterClust is the Theorem 11 iterative clustering (LOCAL, CD,
	// No-CD).
	AlgoIterClust
	// AlgoTheorem12 is the CD energy-improved variant of Theorem 12.
	AlgoTheorem12
	// AlgoDiamTime is the Theorem 16 O(D^{1+eps})-time algorithm.
	AlgoDiamTime
	// AlgoCDMerge is the Theorem 20 CD algorithm (near-optimal energy).
	AlgoCDMerge
	// AlgoPath is the Section 8 path algorithm (Theorem 21).
	AlgoPath
	// AlgoBoundedDegree is Corollary 13: the LOCAL algorithm through the
	// Theorem 3 simulation on a physical No-CD network.
	AlgoBoundedDegree
	// AlgoDeterministic selects Appendix A (Theorem 25 for LOCAL,
	// Theorem 27 for CD).
	AlgoDeterministic
	// AlgoBaselineDecay is the classical BGI decay broadcast comparator.
	AlgoBaselineDecay
)

// String names the algorithm.
func (a Algorithm) String() string {
	switch a {
	case AlgoAuto:
		return "auto"
	case AlgoIterClust:
		return "iterclust"
	case AlgoTheorem12:
		return "theorem12"
	case AlgoDiamTime:
		return "dtime"
	case AlgoCDMerge:
		return "cdmerge"
	case AlgoPath:
		return "path"
	case AlgoBoundedDegree:
		return "bounded-degree"
	case AlgoDeterministic:
		return "deterministic"
	case AlgoBaselineDecay:
		return "baseline-decay"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// config collects the options.
type config struct {
	model   radio.Model
	algo    Algorithm
	seed    uint64
	msg     any
	eps     float64
	xi      float64
	epsSet  bool // WithEpsilon was used: validate the value
	xiSet   bool // WithXi was used: validate the value
	trace   func(radio.Event)
	lean    bool
	sources []int
	sims    *radio.SimCache
	fault   fault.Spec
}

// Option configures Broadcast.
type Option func(*config)

// WithModel selects the collision model (default No-CD).
func WithModel(m radio.Model) Option { return func(c *config) { c.model = m } }

// WithAlgorithm forces a specific algorithm (default AlgoAuto).
func WithAlgorithm(a Algorithm) Option { return func(c *config) { c.algo = a } }

// WithSeed sets the root random seed (default 1).
func WithSeed(seed uint64) Option { return func(c *config) { c.seed = seed } }

// WithMessage sets the broadcast payload (default the string "m").
func WithMessage(msg any) Option { return func(c *config) { c.msg = msg } }

// WithEpsilon sets the Theorem 12/16 time/energy tradeoff parameter.
// Valid values lie in (0, 1]; Broadcast rejects anything else instead
// of silently substituting a default.
func WithEpsilon(eps float64) Option {
	return func(c *config) { c.eps, c.epsSet = eps, true }
}

// WithXi sets the Theorem 20 time/energy tradeoff parameter. Valid
// values lie in (0, 1]; Broadcast rejects anything else instead of
// silently substituting a default.
func WithXi(xi float64) Option {
	return func(c *config) { c.xi, c.xiSet = xi, true }
}

// WithTrace attaches a slot-level event tracer.
func WithTrace(f func(radio.Event)) Option { return func(c *config) { c.trace = f } }

// WithLeanScale applies experiment-scale protocol constants to the heavy
// algorithms (fewer repetitions, identical protocol structure) — used by
// benches and examples on small graphs.
func WithLeanScale() Option { return func(c *config) { c.lean = true } }

// WithSimCache reuses simulators from a per-goroutine cache
// (radio.SimCache) across repeated Broadcast calls on one topology —
// the Monte-Carlo hot path. Purely an allocation optimization:
// measurements and determinism are unaffected. The cache must not be
// shared between goroutines; internal/sweep keeps one per worker.
func WithSimCache(c *radio.SimCache) Option { return func(cfg *config) { cfg.sims = c } }

// WithSources replaces the positional source with a set of broadcasting
// vertices (k-source broadcast). Each source starts the protocol holding
// its own tagged copy of the message; Result.InformedBy reports, per
// vertex, which source's copy arrived first. With zero or one source the
// call is equivalent to the plain positional form. Algorithms whose
// schedule is inherently single-source (path, and the LOCAL/CD
// deterministic constructions) reject len(sources) > 1.
func WithSources(sources ...int) Option {
	return func(c *config) { c.sources = append([]int(nil), sources...) }
}

// WithFault injects deterministic faults — crash-stop devices, forced
// sleep windows, or lossy slots — at the given spec's rate. Fault
// decisions come from a positional hash stream independent of every
// protocol coin flip, so an inactive spec (the zero value, or rate 0)
// leaves the run byte-identical to an unfaulted one. See internal/fault
// for the determinism contract.
func WithFault(s fault.Spec) Option { return func(c *config) { c.fault = s } }

// Result reports one Broadcast run.
type Result struct {
	// Algorithm is the algorithm actually used.
	Algorithm Algorithm
	// Model is the collision model.
	Model radio.Model
	// Slots is the number of time slots used (the paper's time measure).
	Slots uint64
	// Events is the number of device actions the simulator processed —
	// the wall-cost of the run, as opposed to the virtual-time Slots.
	Events uint64
	// Energy is the per-device awake-slot count (a full-duplex
	// transmit+listen slot costs 1, per the paper's energy measure).
	Energy []int
	// Informed marks devices holding the message at the end.
	Informed []bool
	// Sources lists the broadcasting vertices (length 1 unless
	// WithSources was used).
	Sources []int
	// InformedBy[v] is the index into Sources of the source whose copy of
	// the message reached v first, or -1 for uninformed vertices. In a
	// single-source run every informed vertex reports 0.
	InformedBy []int
	// FaultCrashes, FaultSleeps and FaultErasures count the faults
	// WithFault injected (all zero when the spec is inactive).
	FaultCrashes  int
	FaultSleeps   int
	FaultErasures int
}

// MaxEnergy is the paper's energy complexity: max over devices.
func (r *Result) MaxEnergy() int {
	m := 0
	for _, e := range r.Energy {
		if e > m {
			m = e
		}
	}
	return m
}

// TotalEnergy sums all devices' energy.
func (r *Result) TotalEnergy() int {
	t := 0
	for _, e := range r.Energy {
		t += e
	}
	return t
}

// AllInformed reports whether the broadcast completed.
func (r *Result) AllInformed() bool {
	for _, ok := range r.Informed {
		if !ok {
			return false
		}
	}
	return true
}

// Fronts returns the per-source informed fronts: Fronts()[i] counts the
// vertices whose message copy originated at Sources[i] (sources count
// themselves). The fronts partition the informed vertex set.
func (r *Result) Fronts() []int {
	fronts := make([]int, len(r.Sources))
	for _, src := range r.InformedBy {
		if src >= 0 && src < len(fronts) {
			fronts[src]++
		}
	}
	return fronts
}

// IsPath reports whether g is a simple path (the Section 8 special case).
func IsPath(g *graph.Graph) bool {
	if g.N() <= 1 {
		return g.N() == 1
	}
	ends := 0
	for v := 0; v < g.N(); v++ {
		switch g.Degree(v) {
		case 1:
			ends++
		case 2:
		default:
			return false
		}
	}
	return ends == 2 && g.M() == g.N()-1 && g.IsConnected()
}

// resolveCall validates the graph, options and source set, and resolves
// AlgoAuto to a concrete algorithm.
func resolveCall(g *graph.Graph, source int, opts []Option) (config, []int, Algorithm, error) {
	cfg := config{model: radio.NoCD, algo: AlgoAuto, seed: 1, msg: "m", eps: 0.5, xi: 0.5}
	if g == nil || g.N() == 0 {
		return cfg, nil, AlgoAuto, fmt.Errorf("core: nil or empty graph")
	}
	if !g.IsConnected() {
		return cfg, nil, AlgoAuto, fmt.Errorf("core: graph %q is disconnected", g.Name())
	}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.epsSet && (cfg.eps <= 0 || cfg.eps > 1) {
		return cfg, nil, AlgoAuto, fmt.Errorf("core: eps %v outside (0, 1]", cfg.eps)
	}
	if cfg.xiSet && (cfg.xi <= 0 || cfg.xi > 1) {
		return cfg, nil, AlgoAuto, fmt.Errorf("core: xi %v outside (0, 1]", cfg.xi)
	}
	if err := cfg.fault.Validate(); err != nil {
		return cfg, nil, AlgoAuto, fmt.Errorf("core: %w", err)
	}
	sources := cfg.sources
	if len(sources) == 0 {
		sources = []int{source}
	}
	seen := make(map[int]bool, len(sources))
	for _, s := range sources {
		if s < 0 || s >= g.N() {
			return cfg, nil, AlgoAuto, fmt.Errorf("core: source %d out of range [0,%d)", s, g.N())
		}
		if seen[s] {
			return cfg, nil, AlgoAuto, fmt.Errorf("core: duplicate source %d", s)
		}
		seen[s] = true
	}
	algo := cfg.algo
	if algo == AlgoAuto {
		switch {
		case cfg.model == radio.Local && IsPath(g) && len(sources) == 1:
			algo = AlgoPath
		case cfg.model == radio.CD:
			algo = AlgoTheorem12
		default:
			algo = AlgoIterClust
		}
	}
	return cfg, sources, algo, nil
}

// plan is one Broadcast call's seed-independent preparation: parameter
// validation, diameter computation, and protocol-constant construction
// hoisted out of the per-seed work. build creates one run's fresh device
// population plus the collector that maps the raw radio result to the
// public Result; the returned radio.Config wants only its Seed filled.
// A seed enters a trial solely through radio.Config.Seed, so one plan
// could serve any number of trials: plan marks the line between work
// that depends on the seed and work that does not.
type plan struct {
	rcfg  radio.Config
	build func() (pop []radio.Device, collect func(*radio.Result) *Result)
}

// buildPlan dispatches to the single- or multi-source planner.
func buildPlan(g *graph.Graph, sources []int, algo Algorithm, cfg config) (plan, error) {
	if len(sources) > 1 {
		return multiPlan(g, sources, algo, cfg)
	}
	return singlePlan(g, sources[0], algo, cfg)
}

// Broadcast runs the selected algorithm on g from source and returns the
// measured result. WithSources replaces the positional source with a set
// of broadcasting vertices.
func Broadcast(g *graph.Graph, source int, opts ...Option) (*Result, error) {
	cfg, sources, algo, err := resolveCall(g, source, opts)
	if err != nil {
		return nil, err
	}
	pl, err := buildPlan(g, sources, algo, cfg)
	if err != nil {
		return nil, err
	}
	pop, collect := pl.build()
	rcfg := pl.rcfg
	rcfg.Seed = cfg.seed
	rcfg.Fault = cfg.fault
	res, err := radio.RunDevices(rcfg, pop)
	if err != nil {
		return nil, err
	}
	return collect(res), nil
}

// annotateSingle fills the source fields of a single-source result.
func annotateSingle(res *Result, source int) *Result {
	res.Sources = []int{source}
	res.InformedBy = make([]int, len(res.Informed))
	for v, ok := range res.Informed {
		if ok {
			res.InformedBy[v] = 0
		} else {
			res.InformedBy[v] = -1
		}
	}
	return res
}

// singlePlan prepares a single-source run: the per-algorithm parameter
// and configuration construction the old dispatch performed per seed,
// now done once. Config quirks are preserved exactly — only pathcast,
// the bounded-degree simulation, and the deterministic construction see
// the trace sink on the single-source path, and each algorithm keeps
// its historical Model/MaxSlots/IDSpace settings — so a planned run is
// bit-identical to its pre-plan ancestor.
func singlePlan(g *graph.Graph, source int, algo Algorithm, cfg config) (plan, error) {
	n, delta := g.N(), g.MaxDegree()
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
			rcfg: radio.Config{Graph: g, Model: p.Model, Sims: cfg.sims},
			build: func() ([]radio.Device, func(*radio.Result) *Result) {
				devs := make([]iterclust.DeviceResult, n)
				pop := make([]radio.Device, n)
				for v := 0; v < n; v++ {
					pop[v].Proc = iterclust.Proc(p, v == source, cfg.msg, &devs[v])
				}
				return pop, func(res *radio.Result) *Result {
					return annotateSingle(wrap(algo, cfg.model, res, informedOf(devs)), source)
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
			rcfg: radio.Config{Graph: g, Model: p.SR.Model, MaxSlots: 1 << 62, Sims: cfg.sims},
			build: func() ([]radio.Device, func(*radio.Result) *Result) {
				devs := make([]dtime.DeviceResult, n)
				pop := dtime.Devices(&p, devs, func(v int) (bool, any) { return v == source, cfg.msg })
				return pop, func(res *radio.Result) *Result {
					inf := make([]bool, n)
					for v, dres := range devs {
						inf[v] = dres.Informed
					}
					return annotateSingle(wrap(algo, cfg.model, res, inf), source)
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
			rcfg: radio.Config{Graph: g, Model: radio.CD, MaxSlots: 1 << 62, Sims: cfg.sims},
			build: func() ([]radio.Device, func(*radio.Result) *Result) {
				devs := make([]cdmerge.DeviceResult, n)
				pop := make([]radio.Device, n)
				for v := 0; v < n; v++ {
					pop[v].Proc = cdmerge.Proc(p, v == source, cfg.msg, &devs[v])
				}
				return pop, func(res *radio.Result) *Result {
					inf := make([]bool, n)
					for v, dres := range devs {
						inf[v] = dres.Informed
					}
					return annotateSingle(wrap(algo, radio.CD, res, inf), source)
				}
			},
		}, nil

	case AlgoPath:
		if err := pathcast.Validate(g, source); err != nil {
			return plan{}, err
		}
		p := pathcast.Params{Sims: cfg.sims}
		return plan{
			rcfg: radio.Config{Graph: g, Model: radio.Local, Trace: cfg.trace, Sims: cfg.sims},
			build: func() ([]radio.Device, func(*radio.Result) *Result) {
				devs := make([]pathcast.DeviceResult, n)
				pop := make([]radio.Device, n)
				for v := 0; v < n; v++ {
					pop[v].Proc = pathcast.Proc(p, g.Neighbors(v), v == source, cfg.msg, &devs[v])
				}
				return pop, func(res *radio.Result) *Result {
					inf := make([]bool, n)
					for v, dres := range devs {
						inf[v] = dres.Informed
					}
					return annotateSingle(wrap(algo, radio.Local, res, inf), source)
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
					pop[v].Proc = coloring.SimulateProc(1, cp,
						iterclust.Proc(ip, v == source, cfg.msg, &devs[v]), &cres[v])
				}
				return pop, func(res *radio.Result) *Result {
					return annotateSingle(wrap(algo, radio.NoCD, res, informedOf(devs)), source)
				}
			},
		}, nil

	case AlgoDeterministic:
		model := cfg.model
		if model == radio.NoCD {
			return plan{}, fmt.Errorf("core: no deterministic No-CD algorithm exists (the Theorem 2 lower bound is Omega(Delta))")
		}
		p, err := detcast.NewParams(model, n, n)
		if err != nil {
			return plan{}, err
		}
		return plan{
			rcfg: radio.Config{Graph: g, Model: model, IDSpace: n, Trace: cfg.trace,
				MaxSlots: 1 << 62, Sims: cfg.sims},
			build: func() ([]radio.Device, func(*radio.Result) *Result) {
				devs := make([]detcast.DeviceResult, n)
				pop := make([]radio.Device, n)
				for v := 0; v < n; v++ {
					pop[v].Proc = detcast.Proc(p, v == source, cfg.msg, &devs[v])
				}
				return pop, func(res *radio.Result) *Result {
					inf := make([]bool, n)
					for v, dres := range devs {
						inf[v] = dres.Informed
					}
					return annotateSingle(wrap(algo, model, res, inf), source)
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
			rcfg: radio.Config{Graph: g, Model: cfg.model, Sims: cfg.sims},
			build: func() ([]radio.Device, func(*radio.Result) *Result) {
				devs := make([]baseline.DeviceResult, n)
				pop := make([]radio.Device, n)
				for v := 0; v < n; v++ {
					pop[v].Proc = baseline.Proc(p, v == source, cfg.msg, &devs[v])
				}
				return pop, func(res *radio.Result) *Result {
					inf := make([]bool, n)
					for v, dres := range devs {
						inf[v] = dres.Informed
					}
					return annotateSingle(wrap(algo, cfg.model, res, inf), source)
				}
			},
		}, nil

	default:
		return plan{}, fmt.Errorf("core: unknown algorithm %v", algo)
	}
}

func informedOf(devs []iterclust.DeviceResult) []bool {
	inf := make([]bool, len(devs))
	for v, d := range devs {
		inf[v] = d.Informed
	}
	return inf
}

func wrap(a Algorithm, m radio.Model, res *radio.Result, informed []bool) *Result {
	return &Result{
		Algorithm:     a,
		Model:         m,
		Slots:         res.Slots,
		Events:        res.Events,
		Energy:        append([]int(nil), res.Energy...),
		Informed:      informed,
		FaultCrashes:  res.FaultCrashes,
		FaultSleeps:   res.FaultSleeps,
		FaultErasures: res.FaultErasures,
	}
}
