// Package sweep is the parallel Monte-Carlo experiment engine: it runs
// thousands of workload trials across a declarative matrix of
// topologies x models x algorithms x workload-parameter points on a
// worker pool, aggregates the paper's measures (slots, max/total energy,
// simulator events, plus workload-specific columns) through
// internal/stats, and exports JSON or CSV.
//
// The per-trial scenario is pluggable: Spec.Workload names a registered
// internal/workload scenario (single-source broadcast by default, the
// engine's historical behavior), and Spec.WorkloadParams feeds its
// parameter schema. Grid-valued parameters expand into one matrix cell
// per point, so a beta grid or a source-count grid sweeps exactly like a
// topology size list.
//
// Reproducible-seed contract: the seed of every trial is derived purely
// from the spec's MasterSeed and the trial's position in the matrix —
// cellSeed = rng.Child(MasterSeed, cellIndex), trialSeed =
// rng.Child(cellSeed, trialIndex) — never from worker identity or
// completion order. The cell index covers every axis including the
// workload-parameter point (points are the innermost axis, so the
// default single-point broadcast workload keeps its historical cell
// numbering). Workers write each trial's measurements into a slot
// pre-indexed by (cell, trial) and aggregation walks those slots in
// order, so the report (and its JSON/CSV serialization) is bit-identical
// for a fixed spec regardless of GOMAXPROCS or the Workers option.
package sweep

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/radio"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// Topology declares one network in the matrix.
type Topology struct {
	// Kind selects the generator: path, cycle, star, clique, grid, k2k,
	// hypercube, tree, gnp, rgg, lollipop.
	Kind string
	// N is the primary size parameter (vertices; k for k2k; dimension
	// for hypercube; clique size for lollipop).
	N int
	// M is the secondary size parameter: columns for grid (N = rows),
	// tail length for lollipop. Ignored elsewhere.
	M int
	// P is the gnp edge probability. Zero means the default 8/n
	// (capped at 1) — dense enough that small instances are almost
	// always connected.
	P float64
	// R is the rgg connection radius. Zero means the generator's
	// above-connectivity-threshold default.
	R float64
	// Seed is the generator seed for the random kinds (tree, gnp, rgg).
	Seed uint64
}

// TopologyKinds lists the valid Kind values in the order Build documents
// them.
func TopologyKinds() []string {
	return []string{"path", "cycle", "star", "clique", "grid", "k2k",
		"hypercube", "tree", "gnp", "rgg", "lollipop"}
}

// Build constructs the declared graph.
func (t Topology) Build() (*graph.Graph, error) {
	if t.N <= 0 {
		return nil, fmt.Errorf("sweep: topology %q needs N > 0", t.Kind)
	}
	switch strings.ToLower(t.Kind) {
	case "path":
		return graph.Path(t.N), nil
	case "cycle":
		return graph.Cycle(t.N), nil
	case "star":
		return graph.Star(t.N), nil
	case "clique":
		return graph.Clique(t.N), nil
	case "k2k":
		return graph.K2k(t.N), nil
	case "hypercube":
		return graph.Hypercube(t.N), nil
	case "grid":
		cols := t.M
		if cols == 0 {
			cols = t.N
		}
		return graph.Grid(t.N, cols), nil
	case "tree":
		return graph.RandomTree(t.N, t.Seed), nil
	case "gnp":
		p := t.P
		if p == 0 {
			p = 8.0 / float64(t.N)
			if p > 1 {
				p = 1
			}
		}
		return graph.GNP(t.N, p, t.Seed), nil
	case "rgg":
		return graph.RandomGeometric(t.N, t.R, t.Seed), nil
	case "lollipop":
		tail := t.M
		if tail == 0 {
			tail = t.N
		}
		return graph.Lollipop(t.N, tail), nil
	default:
		return nil, fmt.Errorf("sweep: unknown topology kind %q (valid: %s)",
			t.Kind, strings.Join(TopologyKinds(), ", "))
	}
}

// Spec declares the full experiment matrix: every topology is run under
// every model with every algorithm at every workload-parameter point,
// Trials times each.
type Spec struct {
	Topologies []Topology
	Models     []radio.Model
	Algorithms []core.Algorithm
	// Workload names the registered internal/workload scenario executed
	// per trial. Empty means "broadcast", the engine's historical
	// single-source behavior.
	Workload string
	// WorkloadParams feeds the workload's parameter schema. Values may
	// be comma-separated grids; each grid point becomes its own matrix
	// cell (the innermost axis).
	WorkloadParams map[string]string
	// Trials is the number of seeded runs per cell.
	Trials int
	// MasterSeed roots the per-trial seed derivation.
	MasterSeed uint64
	// Source is the broadcast source vertex (default 0). Workloads that
	// place several sources derive the rest from it deterministically.
	Source int
	// Lean applies core.WithLeanScale to the heavy algorithms.
	Lean bool
	// Faults is the fault-injection axis (see internal/fault): every
	// matrix cell is run once per listed spec, innermost after the
	// workload-parameter point. Empty means one fault-free pass per cell
	// — exactly the pre-fault matrix, same cell numbering, same seeds.
	// An inactive spec in the list (kind "" or rate 0) also reproduces
	// the fault-free cell bit-for-bit: fault decisions come from a
	// positional hash stream disjoint from every protocol RNG stream, so
	// enabling the axis never perturbs protocol coin flips.
	Faults []fault.Spec `json:",omitempty"`
}

// Cell identifies one point of the expanded matrix.
type Cell struct {
	Topology  Topology
	Model     radio.Model
	Algorithm core.Algorithm
	// Point is the workload-parameter point of this cell.
	Point workload.Point
	// Fault is the cell's fault-injection spec (inactive when the spec
	// declares no fault axis).
	Fault fault.Spec
}

// Trial is the measurement of a single seeded run.
type Trial struct {
	Seed        uint64            `json:"seed"`
	Slots       uint64            `json:"slots"`
	Events      uint64            `json:"events"`
	MaxEnergy   int               `json:"maxEnergy"`
	TotalEnergy int               `json:"totalEnergy"`
	Completed   bool              `json:"completed"`
	Informed    int               `json:"informed"`
	Extra       []workload.Sample `json:"extra,omitempty"`
	// FaultCrashes/FaultSleeps/FaultErasures count the faults the engine
	// injected during the trial (all zero — and omitted — without an
	// active fault spec).
	FaultCrashes  int    `json:"faultCrashes,omitempty"`
	FaultSleeps   int    `json:"faultSleeps,omitempty"`
	FaultErasures int    `json:"faultErasures,omitempty"`
	Err           string `json:"err,omitempty"`
}

// ExtraColumn is the aggregate of one workload-specific measure column.
type ExtraColumn struct {
	Name string `json:"name"`
	stats.Summary
}

// CellReport aggregates the trials of one cell.
type CellReport struct {
	Graph     string `json:"graph"`
	N         int    `json:"n"`
	Model     string `json:"model"`
	Algorithm string `json:"algorithm"`
	// Params is the workload-parameter point label (e.g. "beta=0.125");
	// empty for the default point of a parameterless workload.
	Params string `json:"params,omitempty"`
	// Fault is the cell's fault-spec label (e.g. "crash:0.001"); empty
	// for fault-free cells, so fault-free reports keep their shape.
	Fault       string        `json:"fault,omitempty"`
	Trials      int           `json:"trials"`
	Completed   int           `json:"completed"` // trials meeting the workload's success criterion
	Errors      int           `json:"errors"`
	Slots       stats.Summary `json:"slots"`
	MaxEnergy   stats.Summary `json:"maxEnergy"`
	TotalEnergy stats.Summary `json:"totalEnergy"`
	Events      stats.Summary `json:"events"`
	// Extra aggregates the workload's own measure columns, in the
	// workload's column order. Omitted when the workload adds none, so
	// the default broadcast report keeps its historical shape.
	Extra []ExtraColumn `json:"extra,omitempty"`
}

// Report is the output of one sweep.
type Report struct {
	MasterSeed uint64 `json:"masterSeed"`
	// Workload names the scenario; omitted for the default broadcast
	// workload to keep its serialization byte-identical with the
	// pre-workload engine.
	Workload string       `json:"workload,omitempty"`
	Trials   int          `json:"trialsPerCell"`
	Cells    []CellReport `json:"cells"`
}

// Options tunes the execution without affecting the measurements.
type Options struct {
	// Workers is the pool size (default GOMAXPROCS). The report is
	// identical for every value.
	Workers int
	// Progress, if non-nil, is called after each completed trial with
	// (done, total). It may be called concurrently from worker
	// goroutines.
	Progress func(done, total int)
	// Raw, if non-nil, receives one CSV row per trial (cell id, trial
	// index, seed, slots, energies, events, informed count, completion,
	// error). Rows are streamed as trials complete — a dedicated writer
	// goroutine reorders them into deterministic (cell, trial) order, so
	// the export is bit-identical for any worker count while buffering
	// only a bounded reorder window: job issuance is gated on the writer
	// having flushed all but the last rawWindow(workers) rows, so one
	// pathologically slow trial stalls the pool instead of letting
	// completed rows pile up in memory. Million-trial raw exports
	// therefore stream to disk instead of accumulating in memory.
	Raw io.Writer
	// Telemetry, if non-nil, receives run counters, per-cell progress,
	// and phase timings (see internal/telemetry). Workers update their
	// own shard once per trial — the per-slot hot path is never
	// instrumented — so enabling it does not perturb measurements or the
	// engine's zero-alloc steady state. nil disables all instrumentation.
	Telemetry *telemetry.Recorder
}

// rawWindow bounds the raw export's reorder buffer: at most this many
// trial rows may be issued beyond the oldest unwritten row, so the
// writer's pending map never exceeds it. The window holds at least one
// token per worker — the invariant that keeps the gate deadlock-free
// (the oldest unwritten row's worker acquired its token before taking
// the job, so it is never blocked on the gate).
func rawWindow(workers int) int {
	return 8*workers + 16
}

// rawHeader is the raw per-trial export's column set.
var rawHeader = []string{"cell", "trial", "seed", "slots", "maxEnergy",
	"totalEnergy", "events", "informed", "completed", "err"}

// rawWriter drains completed trials from jobs, restores deterministic
// job order with a reorder buffer (bounded by the issuance gate: at
// most rawWindow jobs are in flight past the oldest unwritten row),
// and appends one CSV row each. Every written row releases one gate
// token. The first write error is reported on done; later rows are
// still consumed (and their tokens released) so workers never block on
// a broken sink.
func rawWriter(w io.Writer, trials int, jobs <-chan rawRow, gate <-chan struct{}, done chan<- error) {
	cw := csv.NewWriter(w)
	var firstErr error
	write := func(row []string) {
		if firstErr != nil {
			return
		}
		if err := cw.Write(row); err != nil {
			firstErr = err
		}
	}
	write(rawHeader)
	pending := make(map[int]Trial)
	next := 0
	u := func(x uint64) string { return strconv.FormatUint(x, 10) }
	for r := range jobs {
		pending[r.job] = r.t
		for {
			t, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			write([]string{
				strconv.Itoa(next / trials), strconv.Itoa(next % trials),
				u(t.Seed), u(t.Slots), strconv.Itoa(t.MaxEnergy),
				strconv.Itoa(t.TotalEnergy), u(t.Events),
				strconv.Itoa(t.Informed), strconv.FormatBool(t.Completed),
				t.Err,
			})
			next++
			<-gate // row flushed: let another job into the window
		}
	}
	cw.Flush()
	if firstErr == nil {
		firstErr = cw.Error()
	}
	done <- firstErr
}

// rawRow carries one finished trial to the raw-export writer.
type rawRow struct {
	job int
	t   Trial
}

// Expand lists the matrix cells in their canonical order — the order that
// fixes each cell's index in the seed derivation: topology-major, then
// model, then algorithm, then workload-parameter point. The error covers
// workload resolution and parameter-grid expansion.
func (s *Spec) Expand() ([]Cell, error) {
	_, cells, err := s.resolve()
	return cells, err
}

// resolve looks up the spec's workload, expands its parameter grid and
// lists the matrix cells.
func (s *Spec) resolve() (workload.Workload, []Cell, error) {
	w, err := workload.Lookup(s.Workload)
	if err != nil {
		return nil, nil, err
	}
	points, err := w.Expand(s.WorkloadParams)
	if err != nil {
		return nil, nil, err
	}
	models := s.Models
	if len(models) == 0 {
		models = []radio.Model{radio.NoCD}
	}
	algos := s.Algorithms
	if len(algos) == 0 {
		algos = []core.Algorithm{core.AlgoAuto}
	}
	faults := s.Faults
	if len(faults) == 0 {
		// No fault axis: a single inactive spec keeps the expansion — and
		// with it cell numbering and seed derivation — identical to the
		// pre-fault matrix.
		faults = []fault.Spec{{}}
	}
	anyActive := false
	for _, fs := range faults {
		if err := fs.Validate(); err != nil {
			return nil, nil, fmt.Errorf("sweep: %w", err)
		}
		anyActive = anyActive || fs.Active()
	}
	if anyActive && !workload.SupportsFaults(w) {
		return nil, nil, fmt.Errorf("sweep: workload %s does not support fault injection", w.Name())
	}
	var cells []Cell
	for _, t := range s.Topologies {
		for _, m := range models {
			for _, a := range algos {
				for _, pt := range points {
					for _, fs := range faults {
						cells = append(cells, Cell{Topology: t, Model: m, Algorithm: a, Point: pt, Fault: fs})
					}
				}
			}
		}
	}
	return w, cells, nil
}

// TrialSeed returns the reproducible seed of trial number `trial` of cell
// number `cell` under the given master seed.
func TrialSeed(master uint64, cell, trial int) uint64 {
	return rng.Child(rng.Child(master, uint64(cell)), uint64(trial))
}

// Runner is the batch-granular execution surface of the engine: a Spec
// resolved once — workload looked up, matrix cells expanded, graphs
// built — against which callers run arbitrary trial ranges of
// individual cells on their own schedule. Run is its whole-matrix
// client; internal/experiment's adaptive controller is the
// batch-at-a-time one. A Runner is safe for concurrent RunTrials calls
// (its state is read-only after construction) as long as each caller
// goroutine passes its own SimCache.
type Runner struct {
	spec   Spec
	wl     workload.Workload
	cells  []Cell
	graphs []*graph.Graph
}

// NewRunner resolves the spec. Spec.Trials is not consulted — trial
// counts are the caller's to choose per RunTrials call.
func NewRunner(spec Spec) (*Runner, error) {
	if len(spec.Topologies) == 0 {
		return nil, fmt.Errorf("sweep: no topologies")
	}
	wl, cells, err := spec.resolve()
	if err != nil {
		return nil, err
	}
	graphs := make([]*graph.Graph, len(cells))
	for i, c := range cells {
		g, err := c.Topology.Build()
		if err != nil {
			return nil, err
		}
		if spec.Source < 0 || spec.Source >= g.N() {
			return nil, fmt.Errorf("sweep: source %d out of range for %s", spec.Source, g.Name())
		}
		graphs[i] = g
	}
	return &Runner{spec: spec, wl: wl, cells: cells, graphs: graphs}, nil
}

// Workload returns the resolved workload.
func (r *Runner) Workload() workload.Workload { return r.wl }

// Cells lists the expanded matrix cells in canonical (seed-derivation)
// order. The slice is shared; do not mutate it.
func (r *Runner) Cells() []Cell { return r.cells }

// Graph returns the built topology of one cell.
func (r *Runner) Graph(cell int) *graph.Graph { return r.graphs[cell] }

// CellLabel renders one cell's identity as "graph/model/algorithm" plus
// a "/params" suffix for parameterized workload points — the label
// telemetry and status endpoints key per-cell progress on. Labels are
// pure functions of the spec, so they are safe to pin in determinism
// tests.
func (r *Runner) CellLabel(cell int) string {
	c := r.cells[cell]
	label := r.graphs[cell].Name() + "/" + c.Model.String() + "/" + c.Algorithm.String()
	if c.Point.Label != "" {
		label += "/" + c.Point.Label
	}
	if fl := c.Fault.Label(); fl != "" {
		label += "/" + fl
	}
	return label
}

// CellLabels lists every cell's label in canonical order.
func (r *Runner) CellLabels() []string {
	out := make([]string, len(r.cells))
	for i := range out {
		out[i] = r.CellLabel(i)
	}
	return out
}

// RunTrials executes trials [lo, hi) of one cell in trial order,
// writing their measurements into out[0:hi-lo]. Seeds derive from the
// trial's absolute matrix position (TrialSeed), so any batch partition
// of a trial range measures exactly what one contiguous run would —
// the property the adaptive controller's checkpoint/resume relies on.
// sims may be nil; passing a per-goroutine cache makes consecutive
// batches on one cell reuse the preallocated engine.
func (r *Runner) RunTrials(cell, lo, hi int, sims *radio.SimCache, out []Trial) {
	for t := lo; t < hi; t++ {
		out[t-lo] = r.runTrial(cell, t, sims)
	}
}

// Run executes the matrix on a worker pool and returns the aggregated
// report. Trial-level failures (algorithm/model mismatches, incomplete
// broadcasts) are recorded in the report, not returned; the error covers
// spec-level problems only.
func Run(spec Spec, opt Options) (*Report, error) {
	if spec.Trials <= 0 {
		return nil, fmt.Errorf("sweep: Trials must be positive, got %d", spec.Trials)
	}
	rec := opt.Telemetry
	rec.Phase("resolve")
	r, err := NewRunner(spec)
	if err != nil {
		return nil, err
	}
	wl, cells := r.wl, r.cells
	rec.StartCells(r.CellLabels())

	// One pre-indexed slot per trial: workers race only on the job
	// counter, never on result placement, which is what makes the
	// aggregate independent of scheduling.
	results := make([][]Trial, len(cells))
	for i := range results {
		results[i] = make([]Trial, spec.Trials)
	}
	// One job is one trial; job j is trial j%Trials of cell j/Trials.
	total := len(cells) * spec.Trials
	var next, done atomic.Int64
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > total {
		workers = total
	}
	// Raw per-trial export: workers hand finished trials to a dedicated
	// writer goroutine, which streams them out in deterministic trial
	// order. The gate semaphore caps issued-but-unwritten trial rows at
	// rawWindow(workers), bounding the writer's reorder buffer: workers
	// acquire one token before taking a job, the writer releases one per
	// written row. Deadlock-free because the oldest unwritten row's
	// worker acquired its token before taking the job and the writer
	// always drains the row channel (see Options.Raw).
	var rawCh chan rawRow
	var rawDone chan error
	var rawGate chan struct{}
	if opt.Raw != nil {
		rawCh = make(chan rawRow, 4*workers)
		rawDone = make(chan error, 1)
		rawGate = make(chan struct{}, rawWindow(workers))
		go rawWriter(opt.Raw, spec.Trials, rawCh, rawGate, rawDone)
	}
	rec.Shards(workers)
	rec.Phase("trials")
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			// Each worker owns a simulator cache: the thousands of trials
			// it runs on a cell's long-lived graph reuse one preallocated
			// engine instead of rebuilding envs, random streams, and
			// scheduler scratch per trial. Caches never cross goroutines,
			// and a recycled simulator is reset per run, so the aggregate
			// stays bit-identical for any worker count.
			sims := &radio.SimCache{}
			// sh is nil when telemetry is disabled; all updates are
			// per-trial, never per-slot.
			sh := rec.Shard(w)
			for {
				if rawGate != nil {
					rawGate <- struct{}{}
				}
				job := int(next.Add(1)) - 1
				if job >= total {
					if rawGate != nil {
						<-rawGate // no job taken: hand the token back
					}
					return
				}
				ci, ti := job/spec.Trials, job%spec.Trials
				var t0 time.Time
				if sh != nil {
					sh.BatchStart()
					t0 = time.Now()
				}
				tr := r.runTrial(ci, ti, sims)
				if sh != nil {
					sh.BatchDone(ci, 1, tr.Slots, time.Since(t0))
					sh.SetCache(telemetry.CacheCounts(sims.Stats()))
					// Every trial of a fixed sweep commits; a cell is done
					// when its committed count reaches the spec's target.
					// Injected-fault counts commit alongside: every trial
					// commits exactly once, so the totals are deterministic.
					rec.CommitFaults(uint64(tr.FaultCrashes), uint64(tr.FaultSleeps), uint64(tr.FaultErasures))
					if n := rec.CommitTrials(ci, 1); n == uint64(spec.Trials) {
						rec.CellDone(ci, "done")
					}
				}
				results[ci][ti] = tr
				if rawCh != nil {
					rawCh <- rawRow{job: job, t: tr}
				}
				if opt.Progress != nil {
					opt.Progress(int(done.Add(1)), total)
				} else {
					done.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	if rawCh != nil {
		close(rawCh)
		if err := <-rawDone; err != nil {
			return nil, fmt.Errorf("sweep: raw export: %w", err)
		}
	}

	rec.Phase("aggregate")
	rep := &Report{MasterSeed: spec.MasterSeed, Trials: spec.Trials, Cells: make([]CellReport, len(cells))}
	if wl.Name() != "broadcast" {
		rep.Workload = wl.Name()
	}
	for i, c := range cells {
		rep.Cells[i] = aggregate(r.graphs[i], c, results[i])
	}
	return rep, nil
}

// runTrial executes one seeded workload trial and measures it. sims is
// the calling worker's private simulator cache.
func (r *Runner) runTrial(cell, trial int, sims *radio.SimCache) Trial {
	c := r.cells[cell]
	seed := TrialSeed(r.spec.MasterSeed, cell, trial)
	m, err := r.wl.Run(r.graphs[cell], c.Point, seed, workload.Options{
		Model:     c.Model,
		Algorithm: c.Algorithm,
		Source:    r.spec.Source,
		Lean:      r.spec.Lean,
		Sims:      sims,
		Fault:     c.Fault,
	})
	if err != nil {
		return Trial{Seed: seed, Err: err.Error()}
	}
	return Trial{
		Seed:          seed,
		Slots:         m.Slots,
		Events:        m.Events,
		MaxEnergy:     m.MaxEnergy,
		TotalEnergy:   m.TotalEnergy,
		Completed:     m.Completed,
		Informed:      m.Informed,
		Extra:         m.Extra,
		FaultCrashes:  m.FaultCrashes,
		FaultSleeps:   m.FaultSleeps,
		FaultErasures: m.FaultErasures,
	}
}

// aggregate folds a cell's trials — in trial order — into its report.
// Workload-specific columns are keyed by the names of the first
// successful trial (the workload contract fixes them per point).
func aggregate(g *graph.Graph, c Cell, trials []Trial) CellReport {
	rep := CellReport{
		Graph:     g.Name(),
		N:         g.N(),
		Model:     c.Model.String(),
		Algorithm: c.Algorithm.String(),
		Params:    c.Point.Label,
		Fault:     c.Fault.Label(),
		Trials:    len(trials),
	}
	slots := stats.NewStream(len(trials))
	maxE := stats.NewStream(len(trials))
	totE := stats.NewStream(len(trials))
	events := stats.NewStream(len(trials))
	var extras []*stats.Stream
	var extraNames []string
	for _, tr := range trials {
		if tr.Err != "" {
			rep.Errors++
			continue
		}
		if tr.Completed {
			rep.Completed++
		}
		slots.Add(float64(tr.Slots))
		maxE.Add(float64(tr.MaxEnergy))
		totE.Add(float64(tr.TotalEnergy))
		events.Add(float64(tr.Events))
		if extras == nil && len(tr.Extra) > 0 {
			extras = make([]*stats.Stream, len(tr.Extra))
			extraNames = make([]string, len(tr.Extra))
			for i, s := range tr.Extra {
				extras[i] = stats.NewStream(len(trials))
				extraNames[i] = s.Name
			}
		}
		if len(tr.Extra) == len(extras) {
			for i, s := range tr.Extra {
				extras[i].Add(s.X)
			}
		}
	}
	rep.Slots = slots.Summarize()
	rep.MaxEnergy = maxE.Summarize()
	rep.TotalEnergy = totE.Summarize()
	rep.Events = events.Summarize()
	for i, st := range extras {
		rep.Extra = append(rep.Extra, ExtraColumn{Name: extraNames[i], Summary: st.Summarize()})
	}
	return rep
}

// WriteJSON serializes the report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// hasParams reports whether any cell carries a workload-parameter label.
func (r *Report) hasParams() bool {
	for _, c := range r.Cells {
		if c.Params != "" {
			return true
		}
	}
	return false
}

// hasFault reports whether any cell carries an active fault spec.
func (r *Report) hasFault() bool {
	for _, c := range r.Cells {
		if c.Fault != "" {
			return true
		}
	}
	return false
}

// extraColumns returns the union of the cells' workload-specific column
// names, in first-seen order — the uniform CSV column set for a report
// whose cells may aggregate heterogeneous measures (e.g. an msrc source-
// count grid with per-source fronts).
func (r *Report) extraColumns() []string {
	var names []string
	seen := map[string]bool{}
	for _, c := range r.Cells {
		for _, e := range c.Extra {
			if !seen[e.Name] {
				seen[e.Name] = true
				names = append(names, e.Name)
			}
		}
	}
	return names
}

// WriteCSV serializes the report as one CSV row per cell. Reports of
// parameterized workloads gain a "params" column and one
// <name>_mean/_p99/_max column triple per workload-specific measure;
// cells lacking a column (heterogeneous grids) leave it empty. The
// default broadcast report keeps its historical header.
func (r *Report) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	withParams := r.hasParams()
	withFault := r.hasFault()
	extraCols := r.extraColumns()
	header := []string{"graph", "n", "model", "algorithm"}
	if withParams {
		header = append(header, "params")
	}
	if withFault {
		header = append(header, "fault")
	}
	header = append(header,
		"trials", "completed", "errors",
		"slots_mean", "slots_p50", "slots_p90", "slots_p99", "slots_max",
		"maxE_mean", "maxE_p50", "maxE_p90", "maxE_p99", "maxE_max",
		"totalE_mean", "events_mean",
	)
	for _, name := range extraCols {
		header = append(header, name+"_mean", name+"_p99", name+"_max")
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	f := func(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
	for _, c := range r.Cells {
		row := []string{c.Graph, strconv.Itoa(c.N), c.Model, c.Algorithm}
		if withParams {
			row = append(row, c.Params)
		}
		if withFault {
			row = append(row, c.Fault)
		}
		row = append(row,
			strconv.Itoa(c.Trials), strconv.Itoa(c.Completed), strconv.Itoa(c.Errors),
			f(c.Slots.Mean), f(c.Slots.P50), f(c.Slots.P90), f(c.Slots.P99), f(c.Slots.Max),
			f(c.MaxEnergy.Mean), f(c.MaxEnergy.P50), f(c.MaxEnergy.P90), f(c.MaxEnergy.P99), f(c.MaxEnergy.Max),
			f(c.TotalEnergy.Mean), f(c.Events.Mean),
		)
		byName := make(map[string]stats.Summary, len(c.Extra))
		for _, e := range c.Extra {
			byName[e.Name] = e.Summary
		}
		for _, name := range extraCols {
			if s, ok := byName[name]; ok {
				row = append(row, f(s.Mean), f(s.P99), f(s.Max))
			} else {
				row = append(row, "", "", "")
			}
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Table renders the report as an aligned plain-text table. Parameterized
// workloads gain a params column; the default broadcast table keeps its
// historical shape.
func (r *Report) Table() string {
	withParams := r.hasParams()
	withFault := r.hasFault()
	header := []string{"graph", "n", "model", "algo"}
	if withParams {
		header = append(header, "params")
	}
	if withFault {
		header = append(header, "fault")
	}
	header = append(header, "ok/trials",
		"slots(mean)", "slots(p99)", "maxE(mean)", "maxE(p99)")
	tbl := &stats.Table{Header: header}
	for _, c := range r.Cells {
		row := []any{c.Graph, c.N, c.Model, c.Algorithm}
		if withParams {
			row = append(row, c.Params)
		}
		if withFault {
			row = append(row, c.Fault)
		}
		row = append(row, fmt.Sprintf("%d/%d", c.Completed, c.Trials),
			c.Slots.Mean, c.Slots.P99, c.MaxEnergy.Mean, c.MaxEnergy.P99)
		tbl.Add(row...)
	}
	return tbl.String()
}

// CollectTrials runs fn(trial) for every trial index on the worker pool
// and returns the successful samples in trial order — the deterministic
// parallel-map used by harnesses (cmd/energybench) whose per-trial work
// doesn't fit the Spec matrix. fn must be safe to call concurrently;
// trials whose fn returns ok=false are dropped from the result.
func CollectTrials[T any](trials, workers int, fn func(trial int) (T, bool)) []T {
	type slot struct {
		v  T
		ok bool
	}
	slots := make([]slot, trials)
	RunTrials(trials, workers, func(i int) {
		v, ok := fn(i)
		slots[i] = slot{v, ok}
	})
	out := make([]T, 0, trials)
	for _, s := range slots {
		if s.ok {
			out = append(out, s.v)
		}
	}
	return out
}

// RunTrials is the engine's generic worker pool, exposed for harnesses
// (cmd/energybench) whose per-trial work doesn't fit the Spec matrix: it
// invokes fn(trial) for every trial index on `workers` goroutines
// (default GOMAXPROCS). fn writes into caller-owned, trial-indexed
// storage, preserving the engine's determinism contract.
func RunTrials(trials, workers int, fn func(trial int)) {
	if trials <= 0 {
		return
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > trials {
		workers = trials
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= trials {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
