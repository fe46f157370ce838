package main

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/experiment"
	"repro/internal/fabric"
	"repro/internal/sweep"
)

// workers is the trial-executing goroutine count of every workload: the
// sweep pool size, the controller pool size, and the fabric worker count
// (one capacity-1 worker each). It matches the 2-vCPU reference host.
const workers = 2

// thm16Trials is the trial count of one thm16-star1024 repetition: about
// a second of work at the reference throughput, with an even split across
// the two workers.
const thm16Trials = 48

// setupProbes is how many set-ups a run times before it measures, each
// after a garbage collection, as in a fresh process. Set-up times are
// short and, with a checkpoint journal, bimodal (an fsync may delay a
// fabric worker's join), so many probes keep their median steady.
const setupProbes = 101

// scenario is one named benchmark workload.
type scenario struct {
	name string
	// why is the one-line reason the workload exists (BENCHMARK.json
	// carries the same sentence).
	why         string
	defaultSeed uint64
	// pin is the SHA-256 of the report JSON at defaultSeed.
	pin string
	// matches names the workload whose report this one's must equal at
	// any seed.
	matches string
	// setup times one set-up of the workload (setupProbes per run).
	setup  func(b *bench, seed uint64) (float64, error)
	run    func(b *bench, seed uint64) (outcome, error)
	traced func(b *bench, seed uint64) (*tracedRun, error)
}

var scenarios = []*scenario{
	{
		name:        "thm16-star1024",
		why:         "flagship Theorem 16 sweep (star-1024, CD, dtime, solo trials): per-trial plan work and protocol allocation dominate; no controller, journal or wire",
		defaultSeed: 3,
		pin:         "44d259639ff883120a7fc467f15b2e23b8e4ccf83b70b5dfca1dd8bd6265f2e7",
		setup: func(_ *bench, seed uint64) (float64, error) {
			t0 := time.Now()
			_, err := sweep.NewRunner(thm16Spec(seed))
			return time.Since(t0).Seconds(), err
		},
		run: func(_ *bench, seed uint64) (outcome, error) { return runSweep(thm16Spec(seed)) },
		traced: func(_ *bench, seed uint64) (*tracedRun, error) {
			return traceSweep(thm16Spec(seed), 2)
		},
	},
	{
		name:        "adaptive-ckpt",
		why:         "adaptive CI-target run with a checkpoint journal: ~700 batches of 20 tiny trials put Next, FoldBatch and Admit with fsync on the critical path",
		defaultSeed: 9,
		pin:         adaptivePin,
		setup: func(b *bench, seed uint64) (float64, error) {
			cfg := adaptiveConfig(seed, b.journalPath())
			defer os.Remove(cfg.Checkpoint)
			t0 := time.Now()
			lc, err := experiment.NewLeaseController(cfg)
			d := time.Since(t0).Seconds()
			if err != nil {
				return 0, err
			}
			return d, lc.Close()
		},
		run: func(b *bench, seed uint64) (outcome, error) {
			return runAdaptive(adaptiveConfig(seed, b.journalPath()))
		},
		traced: func(b *bench, seed uint64) (*tracedRun, error) {
			return traceAdaptive(adaptiveConfig(seed, b.journalPath()))
		},
	},
	{
		name:        "fabric-2w",
		why:         "the adaptive-ckpt config through an in-process coordinator and two TCP workers, so its difference from adaptive-ckpt is the wire and lease layer",
		defaultSeed: 9,
		pin:         adaptivePin,
		matches:     "adaptive-ckpt",
		setup: func(b *bench, seed uint64) (float64, error) {
			return fabricSetup(adaptiveConfig(seed, b.journalPath()))
		},
		run: func(b *bench, seed uint64) (outcome, error) {
			return runFabric(adaptiveConfig(seed, b.journalPath()))
		},
		traced: func(b *bench, seed uint64) (*tracedRun, error) {
			return traceFabric(adaptiveConfig(seed, b.journalPath()))
		},
	},
}

// adaptivePin is the report digest of the adaptive spec at seed 9, shared
// by adaptive-ckpt and fabric-2w: the fabric's report is byte-identical
// to the local controller's.
const adaptivePin = "8c3bcf77c40a594d2283d1c17a75e5867de45b70ca73a222725b0ec21564dd30"

func lookupScenario(name string) *scenario {
	for _, w := range scenarios {
		if w.name == name {
			return w
		}
	}
	return nil
}

// mustSpec builds a sweep spec from the sweep CLI's matrix syntax, so the
// workloads read exactly like the command lines they reproduce.
func mustSpec(seed uint64, models, algos string, topos ...string) sweep.Spec {
	spec := sweep.Spec{MasterSeed: seed}
	for _, t := range topos {
		ts, err := sweep.ParseTopology(t)
		if err != nil {
			panic(err)
		}
		spec.Topologies = append(spec.Topologies, ts...)
	}
	var err error
	if spec.Models, err = sweep.ParseModels(models); err != nil {
		panic(err)
	}
	if spec.Algorithms, err = sweep.ParseAlgorithms(algos); err != nil {
		panic(err)
	}
	return spec
}

// thm16Spec is `sweep -topo star:1024 -models cd -algos dtime -lean
// -trials 48 -workers 2`: solo trials, no batching.
func thm16Spec(seed uint64) sweep.Spec {
	spec := mustSpec(seed, "cd", "dtime", "star:1024")
	spec.Lean = true
	spec.Trials = thm16Trials
	return spec
}

// adaptiveConfig is the fabric smoke spec: `sweep -topo clique:8,12 -topo
// path:16,24 -algos baseline-decay -ci 0.0015 -ci-measure maxEnergy
// -min-trials 40 -max-trials 30000 -batch 20 -workers 2 -checkpoint ckpt`.
func adaptiveConfig(seed uint64, ckpt string) experiment.Config {
	return experiment.Config{
		Spec:        mustSpec(seed, "nocd", "baseline-decay", "clique:8,12", "path:16,24"),
		BatchSize:   20,
		MinTrials:   40,
		MaxTrials:   30000,
		TargetRelCI: 0.0015,
		Measures:    []string{"maxEnergy"},
		Workers:     workers,
		Checkpoint:  ckpt,
	}
}

// outcome is one untraced repetition of a workload.
type outcome struct {
	wall float64 // seconds from the call to the finished report
	// setup is the repetition's own set-up time (fabric-2w); zero when
	// only the probes measure it.
	setup  float64
	trials int // committed trials
	// failed counts committed trials that errored or did not complete.
	failed     int
	allocBytes uint64
	digest     string
	// check is the report's invariant violation, if any.
	check error
}

// digestOf hashes a report's canonical JSON serialization.
func digestOf(write func(io.Writer) error) (string, error) {
	h := sha256.New()
	if err := write(h); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// checkSweep asserts the invariants every fixed-sweep report must hold
// at any seed: no errored or incomplete trial, and the energy invariant
// MaxEnergy <= Slots on the per-cell maxima.
func checkSweep(rep *sweep.Report) (trials, failed int, err error) {
	for _, c := range rep.Cells {
		trials += c.Trials
		failed += c.Trials - c.Completed // errored trials never complete
		if c.MaxEnergy.Max > c.Slots.Max {
			err = errors.Join(err, fmt.Errorf("%s/%s: max energy %v exceeds max slots %v", c.Graph, c.Algorithm, c.MaxEnergy.Max, c.Slots.Max))
		}
	}
	if failed > 0 {
		err = errors.Join(err, fmt.Errorf("%d of %d trials failed", failed, trials))
	}
	return trials, failed, err
}

// checkExperiment is checkSweep for an adaptive report.
func checkExperiment(rep *experiment.Report) (trials, failed int, err error) {
	for _, c := range rep.Cells {
		trials += c.Trials
		failed += c.Trials - c.Completed // errored trials never complete
		slots, maxE := measureOf(c, "slots"), measureOf(c, "maxEnergy")
		if slots == nil || maxE == nil || maxE.Max > slots.Max {
			err = errors.Join(err, fmt.Errorf("%s: max energy exceeds max slots or is missing", c.Graph))
		}
	}
	if trials != rep.TotalTrials {
		err = errors.Join(err, fmt.Errorf("cells commit %d trials, report total %d", trials, rep.TotalTrials))
	}
	if failed > 0 {
		err = errors.Join(err, fmt.Errorf("%d of %d trials failed", failed, trials))
	}
	return trials, failed, err
}

func measureOf(c experiment.CellResult, name string) *experiment.MeasureStat {
	for i := range c.Measures {
		if c.Measures[i].Name == name {
			return &c.Measures[i]
		}
	}
	return nil
}

// allocDelta runs fn between two heap statistics reads, after a
// collection, and returns the bytes it allocated.
func allocDelta(fn func()) uint64 {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	fn()
	runtime.ReadMemStats(&m1)
	return m1.TotalAlloc - m0.TotalAlloc
}

// runSweep is one thm16-star1024 repetition through sweep.Run.
func runSweep(spec sweep.Spec) (outcome, error) {
	var rep *sweep.Report
	var err error
	var wall time.Duration
	alloc := allocDelta(func() {
		t0 := time.Now()
		rep, err = sweep.Run(spec, sweep.Options{Workers: workers})
		wall = time.Since(t0)
	})
	if err != nil {
		return outcome{}, err
	}
	o := outcome{wall: wall.Seconds(), allocBytes: alloc}
	o.trials, o.failed, o.check = checkSweep(rep)
	o.digest, err = digestOf(rep.WriteJSON)
	return o, err
}

// runAdaptive is one adaptive-ckpt repetition through experiment.Run.
func runAdaptive(cfg experiment.Config) (outcome, error) {
	defer os.Remove(cfg.Checkpoint)
	var rep *experiment.Report
	var err error
	var wall time.Duration
	alloc := allocDelta(func() {
		t0 := time.Now()
		rep, err = experiment.Run(cfg)
		wall = time.Since(t0)
	})
	if err != nil {
		return outcome{}, err
	}
	return experimentOutcome(rep, wall.Seconds(), 0, alloc)
}

func experimentOutcome(rep *experiment.Report, wall, setup float64, alloc uint64) (outcome, error) {
	o := outcome{wall: wall, setup: setup, allocBytes: alloc}
	o.trials, o.failed, o.check = checkExperiment(rep)
	var err error
	o.digest, err = digestOf(rep.WriteJSON)
	return o, err
}

// runFabric is one fabric-2w repetition: a coordinator on 127.0.0.1:0 and
// two in-process capacity-1 workers.
func runFabric(cfg experiment.Config) (outcome, error) {
	defer os.Remove(cfg.Checkpoint)
	fr, err := fabricRun(cfg, false)
	return fr.outcome, err
}

// fabricResult is one fabric run: its outcome, when it started, its
// report, and the closed relay with its frame log (traced runs only).
type fabricResult struct {
	outcome
	start time.Time
	rep   *experiment.Report
	rl    *relay
}

// fabricRun runs the fabric to its report and keeps the journal. With
// relayed set, the workers dial a counting relay in front of the
// coordinator.
func fabricRun(cfg experiment.Config, relayed bool) (fabricResult, error) {
	var (
		fr          fabricResult
		fs          *fabricSession
		err         error
		wall, setup time.Duration
	)
	alloc := allocDelta(func() {
		fr.start = time.Now()
		if fs, err = startFabric(cfg, relayed); err != nil {
			return
		}
		setup = time.Since(fr.start)
		fr.rep, err = fs.co.Wait()
		wall = time.Since(fr.start)
	})
	if fs != nil {
		err = errors.Join(err, fs.stop(false))
		fr.rl = fs.rl
	}
	if err != nil {
		return fr, fmt.Errorf("fabric: %w", err)
	}
	fr.outcome, err = experimentOutcome(fr.rep, wall.Seconds(), setup.Seconds(), alloc)
	return fr, err
}

// fabricSetup times one fabric set-up — lease controller, coordinator,
// and both workers listed by Coordinator.Status — then interrupts the
// run and waits for it to end.
func fabricSetup(cfg experiment.Config) (float64, error) {
	defer os.Remove(cfg.Checkpoint)
	t0 := time.Now()
	fs, err := startFabric(cfg, false)
	if err != nil {
		return 0, err
	}
	d := time.Since(t0).Seconds()
	return d, fs.stop(true)
}

// fabricSession is a running coordinator with its in-process workers.
type fabricSession struct {
	co        *fabric.Coordinator
	rl        *relay
	interrupt chan struct{}
	wg        sync.WaitGroup
	errs      []error // one per worker
}

// startFabric starts a lease controller and coordinator on a free
// loopback port, optionally the relay, and the workers, and returns once
// the coordinator lists every worker (or has already finished).
func startFabric(cfg experiment.Config, relayed bool) (*fabricSession, error) {
	lc, err := experiment.NewLeaseController(cfg)
	if err != nil {
		return nil, err
	}
	fs := &fabricSession{interrupt: make(chan struct{}), errs: make([]error, workers)}
	fs.co, err = fabric.StartCoordinator(fabric.CoordinatorConfig{
		Controller: lc, ListenAddr: "127.0.0.1:0", Interrupt: fs.interrupt})
	if err != nil {
		lc.Close()
		return nil, err
	}
	addr := fs.co.Addr()
	if relayed {
		if fs.rl, err = startRelay(addr); err != nil {
			return nil, errors.Join(err, fs.stop(true))
		}
		addr = fs.rl.addr()
	}
	for i := range workers {
		fs.wg.Add(1)
		go func() {
			defer fs.wg.Done()
			fs.errs[i] = fabric.RunWorker(fabric.WorkerConfig{
				Addr: addr, Name: fmt.Sprintf("w%d", i), Capacity: 1, Interrupt: fs.interrupt})
		}()
	}
	limit := time.Now().Add(30 * time.Second)
	for s := fs.co.Status(); len(s.Workers) < workers && !s.Done; s = fs.co.Status() {
		if time.Now().After(limit) {
			return nil, errors.Join(errors.New("workers did not join within 30s"), fs.stop(true))
		}
		time.Sleep(100 * time.Microsecond)
	}
	return fs, nil
}

// stop ends the session — interrupting it first when interrupt is set —
// and waits for the coordinator, the workers and the relay to exit. An
// interruption it asked for is not an error.
func (fs *fabricSession) stop(interrupt bool) error {
	if interrupt {
		close(fs.interrupt)
	}
	_, err := fs.co.Wait()
	fs.wg.Wait()
	if fs.rl != nil {
		fs.rl.close()
	}
	var errs []error
	for _, e := range append(fs.errs, err) {
		if !(interrupt && errors.Is(e, experiment.ErrInterrupted)) {
			errs = append(errs, e)
		}
	}
	return errors.Join(errs...)
}
