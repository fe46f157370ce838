// Command sweep runs a parallel Monte-Carlo experiment matrix over the
// registered workloads and prints aggregate statistics, optionally
// exporting JSON or CSV. The matrix is topologies x models x algorithms
// x workload-parameter points, each cell run -trials times with
// reproducible per-trial seeds derived from -seed (identical results for
// any -workers value).
//
// Usage:
//
//	sweep -topo path:64,128 -topo gnp:32:p=0.25 \
//	      -models local,nocd -algos auto -trials 1000 \
//	      [-workload broadcast] [-wparam key=value]... \
//	      [-fault kind:rates[:w=window]]... \
//	      [-seed 1] [-source 0] [-workers 0] [-lean] \
//	      [-json out.json] [-csv out.csv] [-raw trials.csv] [-progress] \
//	      [-status :8080] [-manifest run.manifest.json] \
//	      [-cpuprofile cpu.out] [-memprofile mem.out] [-trace trace.out]
//
// # Fault injection
//
// -fault adds a deterministic fault-injection axis to the matrix (see
// internal/fault): crash:0.001 removes devices permanently, sleep:0.01:w=8
// forces 8-slot idle windows, loss:0.05 erases successful deliveries —
// each rate a per-(device, slot) probability, each listed spec its own
// matrix cell. Fault decisions come from a positional hash stream
// disjoint from every protocol RNG stream, so a rate-0 spec reproduces
// the fault-free report byte for byte and results stay bit-identical
// for any -workers. Faulted cells gain graceful-degradation
// columns (success, informedFrac, energyOverhead, wastedAwake) that
// adaptive runs can target with -ci-measure.
//
// # Observability
//
// -status addr serves the run live over HTTP (see internal/telemetry):
// /status returns a JSON snapshot — run counters, per-cell committed
// trials and wall-clock, convergence traces of adaptive runs — and
// /debug/pprof/ exposes the standard profiling handlers. The resolved
// address is printed to stderr (useful with ":0"). -progress prints a
// periodic one-line stderr report with an ETA extrapolated from the
// trial-commit rate. -manifest writes a run manifest (spec, seed,
// worker/batch config, counters, per-cell trials and timings, phase
// timings); with -json but no -manifest, the manifest is derived next
// to the report as <report>.manifest.json (-manifest none disables
// the default). Telemetry counters live in
// per-worker shards updated once per trial batch, so none of this
// perturbs measurements: the report JSON is byte-identical with and
// without it.
//
// # Adaptive runs and checkpoint/resume
//
// With -ci (and mandatory -max-trials), the run goes through the
// internal/experiment controller instead of the fixed-trials engine:
// cells run in -batch sized trial batches and each stops independently
// once every -ci-measure's Student-t relative CI half-width (confidence
// -ci-conf) is within the -ci target, reallocating workers to the cells
// that still need trials. -checkpoint journals every completed batch
// (CRC-framed, fsync'd); after a crash or Ctrl-C, `sweep -resume
// run.ckpt` continues the run — the journal holds the full experiment
// definition, so -resume conflicts with every matrix flag — and
// produces aggregate JSON byte-identical to an uninterrupted run.
// -checkpoint without -ci journals a fixed -trials sweep.
//
//	sweep -topo path:128,256 -topo gnp:64 -models nocd,cd \
//	      -ci 0.01 -ci-measure slots,maxEnergy \
//	      -min-trials 200 -max-trials 200000 \
//	      -checkpoint run.ckpt -json out.json
//	sweep -resume run.ckpt -json out.json   # after a kill
//
// # Distributed sweeps
//
// `sweep -worker host:port` turns the process into a fabric worker
// (see internal/fabric and cmd/sweepd): it dials the coordinator at
// that address, executes the batch leases it is handed, and streams
// folded results back until the coordinator reports the run complete.
// The experiment definition comes entirely from the coordinator, so
// -worker conflicts with every matrix and output flag; only -workers
// (the local capacity) rides along. A worker exits 0 when the run
// completes, 2 if the coordinator refuses it for running a different
// code version, and 1 if the coordinator stays unreachable past the
// redial window. The coordinator side guarantees report bytes
// identical to a single-machine run at any worker count.
//
// -raw streams one CSV row per trial (cell id, trial index, seed,
// slots, max/total energy, events, informed count, completion, error)
// as trials finish, in deterministic (cell, trial) order — million-trial
// sweeps write to disk incrementally instead of buffering rows in
// memory.
//
// -cpuprofile / -memprofile / -trace write pprof profiles and a
// runtime/trace of the sweep itself, so engine performance work can
// profile real Monte-Carlo workloads instead of microbenchmarks: e.g.
//
//	sweep -topo gnp:256 -trials 2000 -cpuprofile cpu.out -trace trace.out
//	go tool pprof cpu.out
//	go tool trace trace.out
//
// Topology syntax: kind:size1,size2,...[:key=value,...] with kinds
// path, cycle, star, clique, grid (cols=...), k2k, hypercube, tree
// (seed=...), gnp (p=..., seed=...), rgg (r=..., seed=...), lollipop
// (tail=...).
//
// Workloads (see internal/workload): broadcast (default), msrc (k-source
// broadcast, -wparam k=2,4), leader (single-hop election, -wparam
// proto=rand,det), tradeoff (Theorem 16 dial, -wparam beta=...). Comma-
// separated -wparam values expand into one matrix cell per grid point.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	rtrace "runtime/trace"
	"strings"
	"syscall"
	"time"

	"repro/internal/experiment"
	"repro/internal/fabric"
	"repro/internal/sweep"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

type topoFlags []string

func (t *topoFlags) String() string { return fmt.Sprint(*t) }
func (t *topoFlags) Set(s string) error {
	*t = append(*t, s)
	return nil
}

func main() {
	var topos, wparams, faults topoFlags
	flag.Var(&topos, "topo", "topology spec kind:sizes[:opts] (repeatable)")
	flag.Var(&faults, "fault", "fault-injection spec kind:rates[:w=window] with kinds crash, sleep, loss; comma-separated rates expand into a grid (repeatable)")
	models := flag.String("models", "nocd", "comma-separated models: nocd,cd,cdstar,local")
	algos := flag.String("algos", "auto", "comma-separated algorithms (core.Algorithm names)")
	wl := flag.String("workload", "broadcast",
		"workload scenario: "+strings.Join(workload.Names(), ", "))
	flag.Var(&wparams, "wparam", "workload parameter key=value; comma-separated values expand into a grid (repeatable)")
	trials := flag.Int("trials", 100, "trials per matrix cell")
	seed := flag.Uint64("seed", 1, "master seed for per-trial seed derivation")
	source := flag.Int("source", 0, "broadcast source vertex")
	workers := flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
	lean := flag.Bool("lean", false, "experiment-scale constants for heavy algorithms")
	jsonPath := flag.String("json", "", "write aggregate JSON to this file")
	csvPath := flag.String("csv", "", "write aggregate CSV to this file")
	rawPath := flag.String("raw", "", "stream per-trial raw CSV (cell, trial, seed, slots, energy, informed, ...) to this file")
	progress := flag.Bool("progress", false, "print a periodic one-line progress report with ETA to stderr")
	eventsPath := flag.String("events", "", "append one JSON line per lifecycle event (cell start/stop, batch commits, checkpoint fsyncs, phase transitions) to this file")
	status := flag.String("status", "", "serve live run status and pprof over HTTP on this address (e.g. :8080 or 127.0.0.1:0; resolved address printed to stderr)")
	manifestPath := flag.String("manifest", "", "write a run manifest (spec, counters, per-cell trials and timings) to this file; defaults to <json>.manifest.json when -json is set; 'none' disables the default")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the sweep to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile (taken after the sweep) to this file")
	tracePath := flag.String("trace", "", "write a runtime/trace of the sweep to this file (view with go tool trace)")
	ci := flag.Float64("ci", 0, "adaptive stop: target relative CI half-width per cell (0 = fixed -trials; requires -max-trials)")
	ciMeasure := flag.String("ci-measure", "slots,maxEnergy", "comma-separated measures the -ci rule targets")
	ciConf := flag.Float64("ci-conf", 0.95, "confidence level of the Student-t intervals")
	minTrials := flag.Int("min-trials", 0, "adaptive runs: trials before a cell may stop on CI grounds (0 = 2 batches)")
	maxTrials := flag.Int("max-trials", 0, "adaptive runs: per-cell trial cap (required with -ci)")
	batch := flag.Int("batch", 0, "adaptive runs: trials per scheduling batch (0 = 100)")
	checkpoint := flag.String("checkpoint", "", "journal completed batches to this file (implies the adaptive engine; an existing journal is refused, not overwritten — use -resume)")
	resume := flag.String("resume", "", "continue a checkpointed run from this journal (conflicts with matrix flags)")
	worker := flag.String("worker", "", "run as a fabric worker for the coordinator (cmd/sweepd) at this host:port; conflicts with every flag except -workers")
	flag.Parse()

	// Worker mode: the coordinator owns the experiment; everything local
	// is just capacity.
	if *worker != "" {
		runWorker(*worker, *workers)
		return
	}

	// The manifest rides along with every exported report: derive its
	// default path before validation so collisions are caught up front.
	// -manifest none opts out (e.g. to compare against a telemetry-free
	// run; the report bytes must not change either way).
	manifest := *manifestPath
	if manifest == "" && *jsonPath != "" {
		manifest = strings.TrimSuffix(*jsonPath, ".json") + ".manifest.json"
	} else if manifest == "none" {
		manifest = ""
	}

	// Up-front flag validation: a bad combination exits 2 with a one-line
	// reason before any graph is built or file touched.
	outputs := [][2]string{
		{"json", *jsonPath}, {"csv", *csvPath}, {"raw", *rawPath},
		{"checkpoint", *checkpoint}, {"manifest", manifest}, {"events", *eventsPath},
		{"cpuprofile", *cpuProfile}, {"memprofile", *memProfile}, {"trace", *tracePath},
	}
	if err := validateFlags(*trials, *ci, *maxTrials, *resume, *checkpoint, *rawPath, *csvPath, outputs); err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(2)
	}

	// Profiling hooks: real sweep workloads are what the engine's perf
	// work optimizes for, so make them profileable directly instead of
	// approximating with microbenchmarks.
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		// fatal() also runs this (os.Exit skips defers), so a failure
		// after a long sweep still leaves a usable flushed profile.
		cpuProfileStop = func() {
			pprof.StopCPUProfile()
			f.Close()
			cpuProfileStop = nil
		}
		defer stopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fatal(err)
			}
			runtime.GC() // materialize the post-sweep live set
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatal(err)
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
		}()
	}
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			fatal(err)
		}
		if err := rtrace.Start(f); err != nil {
			fatal(err)
		}
		// fatal() also runs this (os.Exit skips defers), so a failure
		// after a long sweep still leaves a usable flushed trace.
		traceStop = func() {
			rtrace.Stop()
			f.Close()
			traceStop = nil
		}
		defer stopTrace()
	}

	// Telemetry powers -status, -progress, -events, and the manifest;
	// off (nil recorder, zero instrumentation) unless one of them asks
	// for it.
	var rec *telemetry.Recorder
	if *status != "" || *progress || manifest != "" || *eventsPath != "" {
		rec = telemetry.New()
	}
	if *eventsPath != "" {
		lg, err := telemetry.CreateEventLog(*eventsPath)
		if err != nil {
			fatal(err)
		}
		rec.SetEventLog(lg)
		// fatal() also runs this (os.Exit skips defers), so a failure
		// still leaves the events written so far closed cleanly; a write
		// error inside the log surfaces here as a non-zero exit.
		eventsClose = func() {
			eventsClose = nil
			if err := lg.Close(); err != nil {
				fatal(fmt.Errorf("events: %w", err))
			}
		}
		defer closeEvents()
	}
	if *status != "" {
		addr, shutdown, err := telemetry.StartStatusServer(*status, rec)
		if err != nil {
			fatal(err)
		}
		// The resolved address makes ":0" usable by scripts, and the
		// manifest records it so tooling can find the endpoint later.
		fmt.Fprintf(os.Stderr, "sweep: status endpoint on http://%s/status\n", addr)
		rec.SetStatusAddr(addr)
		defer shutdown()
	}

	// Resume: the journal holds the whole experiment definition.
	if *resume != "" {
		runResume(*resume, *workers, *jsonPath, manifest, *progress, rec)
		return
	}

	if len(topos) == 0 {
		fmt.Fprintln(os.Stderr, "sweep: at least one -topo is required")
		flag.Usage()
		os.Exit(2)
	}
	spec := sweep.Spec{Trials: *trials, MasterSeed: *seed, Source: *source, Lean: *lean,
		Workload: *wl}
	for _, s := range topos {
		ts, err := sweep.ParseTopology(s)
		if err != nil {
			fatal(err)
		}
		spec.Topologies = append(spec.Topologies, ts...)
	}
	var err error
	if spec.Models, err = sweep.ParseModels(*models); err != nil {
		fatal(err)
	}
	if spec.Algorithms, err = sweep.ParseAlgorithms(*algos); err != nil {
		fatal(err)
	}
	if spec.WorkloadParams, err = sweep.ParseWorkloadParams(wparams); err != nil {
		fatal(err)
	}
	for _, s := range faults {
		fs, err := sweep.ParseFault(s)
		if err != nil {
			fatal(err)
		}
		spec.Faults = append(spec.Faults, fs...)
	}
	// Resolve the workload and its parameter grid up front so an unknown
	// name or bad grid exits before any graph is built, listing the valid
	// names.
	if _, err = spec.Expand(); err != nil {
		fatal(err)
	}

	// Adaptive / checkpointed runs go through the experiment controller.
	if *ci > 0 || *checkpoint != "" {
		mt := *maxTrials
		if mt == 0 {
			mt = *trials // -checkpoint without -ci: journaled fixed sweep
		}
		runAdaptive(experiment.Config{
			Spec:        spec,
			BatchSize:   *batch,
			MinTrials:   *minTrials,
			MaxTrials:   mt,
			TargetRelCI: *ci,
			Confidence:  *ciConf,
			Measures:    splitMeasures(*ciMeasure),
			Workers:     *workers,
			Checkpoint:  *checkpoint,
			Telemetry:   rec,
		}, *jsonPath, manifest, *progress)
		return
	}

	opt := sweep.Options{Workers: *workers, Telemetry: rec}
	if *rawPath != "" {
		// The raw export streams trial rows as they complete; buffer the
		// file writes so million-trial sweeps don't pay a syscall per row.
		f, err := os.Create(*rawPath)
		if err != nil {
			fatal(err)
		}
		bw := bufio.NewWriterSize(f, 1<<20)
		opt.Raw = bw
		// fatal() also runs this (os.Exit skips defers), so a failure
		// after the sweep — e.g. a bad -json path — still leaves the
		// completed raw rows flushed on disk.
		rawFlush = func() {
			rawFlush = nil
			if err := bw.Flush(); err != nil {
				fatal(err)
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
		}
		defer flushRaw()
	}
	var stopProgress func()
	if *progress {
		// spec.Expand already validated above, so the error is impossible
		// here; the cell count sizes the ETA's trial total.
		cells, _ := spec.Expand()
		stopProgress = rec.StartProgress(os.Stderr, time.Second, uint64(len(cells))*uint64(*trials), false)
	}
	rep, err := sweep.Run(spec, opt)
	if stopProgress != nil {
		stopProgress()
	}
	if err != nil {
		fatal(err)
	}
	rec.Phase("output")
	fmt.Print(rep.Table())
	if *jsonPath != "" {
		if err := writeFile(*jsonPath, rep.WriteJSON); err != nil {
			fatal(err)
		}
	}
	if *csvPath != "" {
		if err := writeFile(*csvPath, rep.WriteCSV); err != nil {
			fatal(err)
		}
	}
	writeManifest(rec, manifest, spec, nil, *workers)
}

// matrixFlags define the experiment; -resume takes the definition from
// the journal, so combining them is a conflict.
var matrixFlags = map[string]bool{
	"topo": true, "models": true, "algos": true, "workload": true,
	"wparam": true, "fault": true, "trials": true, "seed": true, "source": true,
	"lean": true, "ci": true, "ci-measure": true, "ci-conf": true,
	"min-trials": true, "max-trials": true, "batch": true, "checkpoint": true,
}

// validateFlags rejects invalid flag combinations up front, before any
// graph is built or file touched. outputs lists every file-writing flag
// with its (possibly derived) path so collisions are caught before one
// output truncates another.
func validateFlags(trials int, ci float64, maxTrials int, resume, checkpoint, rawPath, csvPath string, outputs [][2]string) error {
	if trials <= 0 {
		return fmt.Errorf("-trials must be positive, got %d", trials)
	}
	seen := map[string]string{}
	for _, o := range outputs {
		name, path := o[0], o[1]
		if path == "" {
			continue
		}
		if prev, dup := seen[path]; dup {
			return fmt.Errorf("-%s and -%s both write to %s", prev, name, path)
		}
		seen[path] = name
	}
	if ci < 0 {
		return fmt.Errorf("-ci must be non-negative, got %v", ci)
	}
	if ci > 0 && maxTrials <= 0 {
		return errors.New("-ci requires -max-trials (the per-cell cap that bounds a never-converging cell)")
	}
	if resume != "" {
		var conflicts []string
		flag.Visit(func(f *flag.Flag) {
			if matrixFlags[f.Name] {
				conflicts = append(conflicts, "-"+f.Name)
			}
		})
		if len(conflicts) > 0 {
			return fmt.Errorf("-resume takes the experiment definition from the journal; drop the conflicting flags: %s",
				strings.Join(conflicts, " "))
		}
	}
	// The same value test main routes on, so validation and execution
	// can never disagree about which engine runs.
	if adaptive := ci > 0 || resume != "" || checkpoint != ""; adaptive {
		if rawPath != "" {
			return errors.New("-raw is only available for fixed (non-adaptive, non-checkpointed) sweeps")
		}
		if csvPath != "" {
			return errors.New("adaptive reports export JSON only; -csv is only for fixed sweeps")
		}
	}
	return nil
}

// splitMeasures parses the -ci-measure list.
func splitMeasures(s string) []string {
	var out []string
	for _, tok := range strings.Split(s, ",") {
		if tok = strings.TrimSpace(tok); tok != "" {
			out = append(out, tok)
		}
	}
	return out
}

// interruptChannel converts the first SIGINT or SIGTERM into a graceful
// controller stop: in-flight batches drain, the checkpoint flushes, any
// -trace stops cleanly, and the process exits with a resume hint.
// SIGTERM gets the identical treatment because orchestrators (systemd,
// Kubernetes, CI timeouts) deliver it where a terminal sends ^C — the
// journal must survive either. A second signal kills the process the
// default way (the handler resets after the first).
func interruptChannel() <-chan struct{} {
	intr := make(chan struct{})
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		signal.Stop(sig)
		fmt.Fprintln(os.Stderr, "sweep: interrupt — draining in-flight batches and flushing the checkpoint (signal again to kill)")
		close(intr)
	}()
	return intr
}

// finishAdaptive renders and exports an adaptive report.
func finishAdaptive(rep *experiment.Report, jsonPath string) {
	fmt.Print(rep.Table())
	if jsonPath != "" {
		if err := writeFile(jsonPath, rep.WriteJSON); err != nil {
			fatal(err)
		}
	}
}

// adaptiveMeta is the manifest's record of the controller parameters,
// as invoked (pre-normalization: zeros mean defaults).
type adaptiveMeta struct {
	BatchSize   int      `json:"batchSize,omitempty"`
	MinTrials   int      `json:"minTrials,omitempty"`
	MaxTrials   int      `json:"maxTrials"`
	TargetRelCI float64  `json:"targetRelCI,omitempty"`
	Confidence  float64  `json:"confidence,omitempty"`
	Measures    []string `json:"measures,omitempty"`
	ResumedFrom string   `json:"resumedFrom,omitempty"`
}

// writeManifest builds and writes the run manifest; a no-op when no
// manifest was requested (path empty, rec nil).
func writeManifest(rec *telemetry.Recorder, path string, spec, adaptive any, workers int) {
	if path == "" || rec == nil {
		return
	}
	m := rec.BuildManifest("sweep", spec, adaptive, workers)
	if err := m.WriteFile(path); err != nil {
		fatal(err)
	}
}

// exitInterrupted reports a graceful SIGINT/SIGTERM stop. 130 is the
// conventional fatal-SIGINT exit status.
func exitInterrupted(checkpoint string) {
	stopCPUProfile()
	stopTrace()
	closeEvents()
	if checkpoint != "" {
		fmt.Fprintf(os.Stderr, "sweep: interrupted; completed batches are journaled — continue with: sweep -resume %s\n", checkpoint)
	} else {
		fmt.Fprintln(os.Stderr, "sweep: interrupted")
	}
	os.Exit(130)
}

// runAdaptive drives a fresh adaptive (or journaled fixed) run.
func runAdaptive(cfg experiment.Config, jsonPath, manifest string, progress bool) {
	cfg.Interrupt = interruptChannel()
	var stopProgress func()
	if progress {
		// MaxTrials per cell is an upper bound — adaptive cells stop
		// early — so the ETA renders as "<=".
		cells, _ := cfg.Spec.Expand()
		stopProgress = cfg.Telemetry.StartProgress(os.Stderr, time.Second,
			uint64(len(cells))*uint64(cfg.MaxTrials), true)
	}
	rep, err := experiment.Run(cfg)
	if stopProgress != nil {
		stopProgress()
	}
	if errors.Is(err, experiment.ErrInterrupted) {
		exitInterrupted(cfg.Checkpoint)
	}
	if err != nil {
		fatal(err)
	}
	cfg.Telemetry.Phase("output")
	finishAdaptive(rep, jsonPath)
	writeManifest(cfg.Telemetry, manifest, cfg.Spec, adaptiveMeta{
		BatchSize: cfg.BatchSize, MinTrials: cfg.MinTrials, MaxTrials: cfg.MaxTrials,
		TargetRelCI: cfg.TargetRelCI, Confidence: cfg.Confidence, Measures: cfg.Measures,
	}, cfg.Workers)
}

// runWorker joins the fabric coordinator at addr as a worker. The
// coordinator defines the experiment, so every flag except -workers is
// a conflict; exits 0 on run completion, 2 on a refused handshake or a
// conflicting flag, 130 on interrupt, 1 on an unreachable coordinator.
func runWorker(addr string, capacity int) {
	var conflicts []string
	flag.Visit(func(f *flag.Flag) {
		if f.Name != "worker" && f.Name != "workers" {
			conflicts = append(conflicts, "-"+f.Name)
		}
	})
	if len(conflicts) > 0 {
		fmt.Fprintf(os.Stderr, "sweep: -worker takes the experiment from the coordinator; drop the conflicting flags: %s\n",
			strings.Join(conflicts, " "))
		os.Exit(2)
	}
	err := fabric.RunWorker(fabric.WorkerConfig{
		Addr: addr, Capacity: capacity, Interrupt: interruptChannel(),
		Log: log.New(os.Stderr, "sweep: ", 0),
	})
	switch {
	case err == nil:
		fmt.Fprintln(os.Stderr, "sweep: run complete, coordinator dismissed this worker")
	case errors.Is(err, fabric.ErrVersionMismatch):
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(2)
	case errors.Is(err, experiment.ErrInterrupted):
		fmt.Fprintln(os.Stderr, "sweep: interrupted")
		os.Exit(130)
	default:
		fatal(err)
	}
}

// runResume continues a checkpointed run. The experiment definition
// lives in the journal, so the manifest echoes only the journal path;
// its deterministic fields (committed counts, traces) still rebuild
// identically to the uninterrupted run's.
func runResume(path string, workers int, jsonPath, manifest string, progress bool, rec *telemetry.Recorder) {
	rc := experiment.ResumeConfig{Workers: workers, Interrupt: interruptChannel(), Telemetry: rec}
	var stopProgress func()
	if progress {
		// The trial total lives in the journal header; report rate only.
		stopProgress = rec.StartProgress(os.Stderr, time.Second, 0, false)
	}
	rep, err := experiment.Resume(path, rc)
	if stopProgress != nil {
		stopProgress()
	}
	if errors.Is(err, experiment.ErrInterrupted) {
		exitInterrupted(path)
	}
	if err != nil {
		fatal(err)
	}
	rec.Phase("output")
	finishAdaptive(rep, jsonPath)
	writeManifest(rec, manifest, nil, adaptiveMeta{ResumedFrom: path}, workers)
}

func writeFile(path string, write func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// cpuProfileStop flushes and closes an in-progress CPU profile; nil when
// none is running. fatal calls it because os.Exit skips defers.
var cpuProfileStop func()

func stopCPUProfile() {
	if cpuProfileStop != nil {
		cpuProfileStop()
	}
}

// rawFlush flushes and closes the raw per-trial export; nil when none
// is open. fatal calls it because os.Exit skips defers.
var rawFlush func()

func flushRaw() {
	if rawFlush != nil {
		rawFlush()
	}
}

// traceStop flushes and closes an in-progress runtime/trace; nil when
// none is running. fatal calls it because os.Exit skips defers.
var traceStop func()

func stopTrace() {
	if traceStop != nil {
		traceStop()
	}
}

// eventsClose closes the -events log; nil when none is open. fatal
// calls it because os.Exit skips defers.
var eventsClose func()

func closeEvents() {
	if eventsClose != nil {
		eventsClose()
	}
}

func fatal(err error) {
	stopCPUProfile()
	stopTrace()
	flushRaw()
	closeEvents()
	// Package errors already carry the "sweep: " prefix; avoid doubling it.
	fmt.Fprintln(os.Stderr, "sweep:", strings.TrimPrefix(err.Error(), "sweep: "))
	os.Exit(1)
}
