// Command perfbench is the repository's performance ledger: it runs named
// end-to-end workloads through the public entry points (sweep.Run,
// experiment.Run, fabric.StartCoordinator plus fabric.RunWorker), checks
// every report against a pinned digest, and prints the end-to-end
// metrics, times scaled to a reference host speed (calibrate.go); with
// --trace 1 it adds a traced run that splits the time into per-layer
// metrics and a breakdown that sums to workers x wall. See README.md for
// the workloads, the metric-to-layer table and examples.
//
// Usage:
//
//	bash perfbench/run.sh --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	name := flag.String("workload", "", "workload to run: "+strings.Join(scenarioNames(), ", ")+", or all")
	seed := flag.Uint64("seed", 0, "master seed (default: the workload's pinned seed)")
	seconds := flag.Float64("seconds", 20, "measuring time per workload, in seconds")
	trace := flag.Int("trace", 0, "1 adds a traced run and reports per-layer metrics instead of end-to-end ones")
	flag.Parse()
	seedSet := false
	flag.Visit(func(f *flag.Flag) { seedSet = seedSet || f.Name == "seed" })

	var list []*scenario
	if *name == "all" {
		list = scenarios
	} else if sc := lookupScenario(*name); sc != nil {
		list = []*scenario{sc}
	}
	if len(list) == 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 || flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s, or all), --trace 0|1 and --seconds > 0\n", strings.Join(scenarioNames(), ", "))
		flag.Usage()
		os.Exit(2)
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		fatal(err)
	}
	tmp, err := os.MkdirTemp(workDir, "run-")
	if err != nil {
		fatal(err)
	}
	defer os.RemoveAll(tmp)
	b := &bench{dir: tmp}
	h := hostInfo(tmp)
	hj, _ := json.Marshal(h)
	fmt.Printf("host %s\n", hj)

	res := result{Correct: true, Metrics: map[string]metric{}}
	var spans []namedRun
	for _, sc := range list {
		s := sc.defaultSeed
		if seedSet {
			s = *seed
		}
		r, t, err := b.runScenario(os.Stdout, sc, s, time.Duration(*seconds*float64(time.Second)), *trace == 1)
		if err != nil {
			os.RemoveAll(tmp)
			fatal(fmt.Errorf("%s: %w", sc.name, err))
		}
		res.Correct = res.Correct && r.Correct
		res.Attempted += r.Attempted
		res.Failed += r.Failed
		for k, v := range r.Metrics {
			if len(list) > 1 {
				k = sc.name + "." + k
			}
			res.Metrics[k] = v
		}
		if t != nil {
			spans = append(spans, namedRun{sc.name, t})
		}
	}
	if *trace == 1 {
		if err := writeSpans(spansFile, spans); err != nil {
			os.RemoveAll(tmp)
			fatal(err)
		}
	}
	out, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
}

// Everything a run writes stays under .bench_build/ in the working
// directory: checkpoint journals in a fresh directory under workDir,
// removed at exit, and a traced run's spans in spansFile.
var (
	workDir   = filepath.Join(".bench_build", "perfbench", "work")
	spansFile = filepath.Join(".bench_build", "perfbench", "spans.jsonl")
)

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

func scenarioNames() []string {
	var names []string
	for _, sc := range scenarios {
		names = append(names, sc.name)
	}
	return names
}

// bench holds the state one invocation shares across workloads.
type bench struct {
	dir string // scratch directory for journals
	seq int
}

// journalPath returns a fresh checkpoint path: the controller refuses an
// existing journal.
func (b *bench) journalPath() string {
	b.seq++
	return filepath.Join(b.dir, fmt.Sprintf("run%d.ckpt", b.seq))
}

// result is the JSON object on the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd lists the end-to-end metrics with their units and how each
// scales with host speed: as time (1), as a rate (-1), or not at all (0).
var endToEnd = []struct {
	name, unit string
	speed      float64
}{
	{"wall_s", "s", 1},
	{"trials_per_s", "1/s", -1},
	{"setup_s", "s", 1},
	{"alloc_bytes_per_trial", "B", 0},
}

// gate is the correctness check every repetition's report passes: its
// digest must equal want, learnt from the first repetition when no
// reference exists.
type gate struct {
	want, source string
}

func (g *gate) check(o outcome) error {
	if o.check != nil {
		return o.check
	}
	if g.want == "" {
		g.want = o.digest
		return nil
	}
	if o.digest != g.want {
		return fmt.Errorf("report digest %.12s differs from %.12s (%s)", o.digest, g.want, g.source)
	}
	return nil
}

// newGate picks the reference digest: the pin at the workload's default
// seed; at any other seed, the digest of one run of the workload it
// matches, or else the first repetition's.
func (b *bench) newGate(sc *scenario, seed uint64) (*gate, error) {
	switch {
	case seed == sc.defaultSeed:
		return &gate{want: sc.pin, source: fmt.Sprintf("pinned at seed %d", seed)}, nil
	case sc.matches != "":
		o, err := lookupScenario(sc.matches).run(b, seed)
		if err != nil {
			return nil, err
		}
		if o.check != nil {
			return nil, fmt.Errorf("%s reference at seed %d: %w", sc.matches, seed, o.check)
		}
		return &gate{want: o.digest, source: sc.matches + " at this seed"}, nil
	default:
		return &gate{source: "first repetition at this seed"}, nil
	}
}

// tally accumulates repetitions and their correctness.
type tally struct {
	g                 *gate
	attempted, failed int
	errs              []string
}

func (t *tally) add(o outcome) {
	t.attempted += o.trials
	if err := t.g.check(o); err != nil {
		t.failed += o.trials
		t.errs = append(t.errs, err.Error())
		return
	}
	t.failed += o.failed
}

// runScenario measures one workload for d: untraced repetitions, and with
// traced set, untraced repetitions for the first half and traced ones for
// the second. It prints a human-readable report to w and returns the
// result and the median traced run.
func (b *bench) runScenario(w io.Writer, sc *scenario, seed uint64, d time.Duration, traced bool) (result, *tracedRun, error) {
	fmt.Fprintf(w, "workload %s seed %d trace %v\n  why: %s\n", sc.name, seed, traced, sc.why)
	g, err := b.newGate(sc, seed)
	if err != nil {
		return result{}, nil, err
	}
	tl := &tally{g: g}
	var setups []float64
	for range setupProbes {
		runtime.GC()
		s, err := sc.setup(b, seed)
		if err != nil {
			return result{}, nil, err
		}
		setups = append(setups, s)
	}
	untracedFor := d
	if traced {
		untracedFor = d / 2
	}
	var wall, rate, alloc, calib []float64
	start := time.Now()
	for len(wall) == 0 || time.Since(start) < untracedFor {
		calib = append(calib, calibrate())
		o, err := sc.run(b, seed)
		if err != nil {
			return result{}, nil, err
		}
		tl.add(o)
		setup := o.setup
		if setup == 0 {
			setup = median(setups)
		}
		wall = append(wall, o.wall)
		rate = append(rate, float64(o.trials)/(o.wall-setup))
		alloc = append(alloc, float64(o.allocBytes)/float64(o.trials))
	}
	// Host speed drifts by far more than any bound on a shared host, and
	// the calibration loop drifts with it, so end-to-end times are
	// reported at the reference host speed.
	slow := median(calib) / referenceCalibration
	e2e := map[string][]float64{"wall_s": wall, "trials_per_s": rate, "setup_s": setups, "alloc_bytes_per_trial": alloc}
	fmt.Fprintf(w, "  host speed: calibration %.6g s [%.6g, %.6g] over %d samples, %.4g x the reference %g s\n",
		median(calib), quantile(calib, 0.25), quantile(calib, 0.75), len(calib), slow, referenceCalibration)
	fmt.Fprintf(w, "  end-to-end over %d repetitions (%d set-up probes): median at reference speed; raw median [p25, p75]\n", len(wall), len(setups))
	value := map[string]float64{}
	for _, m := range endToEnd {
		xs := e2e[m.name]
		value[m.name] = median(xs) * math.Pow(slow, -m.speed)
		fmt.Fprintf(w, "    %-24s %14.6g %-4s raw %.6g [%.6g, %.6g]\n", m.name, value[m.name], m.unit, median(xs), quantile(xs, 0.25), quantile(xs, 0.75))
	}

	var tracedRuns []*tracedRun
	if traced {
		start = time.Now()
		for len(tracedRuns) == 0 || time.Since(start) < d/2 {
			t, err := sc.traced(b, seed)
			if err != nil {
				return result{}, nil, err
			}
			tl.add(t.outcome)
			tracedRuns = append(tracedRuns, t)
		}
	}
	fmt.Fprintf(w, "    %-24s %14.6g      (%d of %d trials)\n", "failed_frac", frac(tl.failed, tl.attempted), tl.failed, tl.attempted)
	res := result{Correct: len(tl.errs) == 0, Attempted: tl.attempted, Failed: tl.failed, Metrics: map[string]metric{}}
	if res.Correct {
		fmt.Fprintf(w, "  correct: every report digest is %.12s (%s)\n", g.want, g.source)
	} else {
		fmt.Fprintf(w, "  INCORRECT: %d failed checks, first: %s\n", len(tl.errs), tl.errs[0])
	}
	if !traced {
		for _, m := range endToEnd {
			res.Metrics[m.name] = metric{value[m.name], m.unit}
		}
		return res, nil, nil
	}

	// Report the traced run with the median wall time, so its breakdown
	// and metrics come from one coherent run.
	sort.Slice(tracedRuns, func(i, j int) bool { return tracedRuns[i].wall < tracedRuns[j].wall })
	walls := make([]float64, len(tracedRuns))
	for i, t := range tracedRuns {
		walls[i] = t.wall
	}
	t := tracedRuns[(len(tracedRuns)-1)/2]
	t.layers["trace.overhead_frac"] = median(walls)/median(wall) - 1
	fmt.Fprintf(w, "  traced over %d repetitions; breakdown of the median one (wall %.6g s, %d workers):\n", len(tracedRuns), t.wall, workers)
	fmt.Fprint(w, formatBreakdown(t.rows, t.total))
	fmt.Fprintf(w, "  per-layer metrics:\n")
	for _, m := range layerMetrics {
		v := t.layers[m.name]
		res.Metrics[m.name] = metric{v, m.unit}
		fmt.Fprintf(w, "    %-34s %14.6g %s\n", m.name, v, m.unit)
	}
	return res, t, nil
}

// namedRun is a workload's reported traced run.
type namedRun struct {
	name string
	t    *tracedRun
}

// writeSpans writes the spans of every reported traced run as JSON lines.
func writeSpans(path string, runs []namedRun) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	for _, r := range runs {
		if err := r.t.tr.writeJSON(f, r.name); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// host describes the machine a result was measured on.
type host struct {
	NProc       int    `json:"nproc"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	Workers     int    `json:"workers"`
	GoVersion   string `json:"go"`
	CPU         string `json:"cpu"`
	JournalFS   string `json:"journal_fs"`
	CodeVersion string `json:"code_version"`
}
