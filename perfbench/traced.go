package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/experiment"
	"repro/internal/radio"
	"repro/internal/stats"
	"repro/internal/sweep"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// layerMetrics lists every per-layer metric, with its unit, in report
// order. A traced run reports all of them; a layer the workload never
// reaches reads 0.
var layerMetrics = []struct{ name, unit string }{
	{"graph.build_s", "s"}, {"graph.diameter_s", "s"}, {"graph.diameter_share", "ratio"},
	{"sweep.run_trials_s", "s"}, {"sweep.s_per_trial", "s"}, {"sweep.batches", "count"},
	{"sweep.allocs_per_trial", "count"}, {"sweep.alloc_bytes_per_trial", "B"},
	{"radio.slots_per_trial", "count"}, {"radio.events_per_trial", "count"}, {"radio.ns_per_event", "ns"},
	{"experiment.next_s", "s"}, {"experiment.fold_s", "s"}, {"experiment.admit_s", "s"},
	{"experiment.batches_admitted", "count"}, {"experiment.batches_dropped", "count"},
	{"experiment.wasted_trial_frac", "ratio"}, {"experiment.worker_wait_s", "s"},
	{"experiment.journal_bytes", "B"}, {"experiment.journal_bytes_per_batch", "B"},
	{"fabric.up_bytes_per_lease", "B"}, {"fabric.down_bytes_per_lease", "B"},
	{"fabric.frames_per_lease", "count"}, {"fabric.telemetry_bytes_frac", "ratio"},
	{"fabric.lease_rtt_p50_s", "s"}, {"fabric.lease_rtt_p99_s", "s"},
	{"fabric.worker_idle_s", "s"}, {"fabric.reissued_leases", "count"}, {"fabric.handshake_s", "s"},
	{"trace.overhead_frac", "ratio"}, {"unattributed_s", "s"},
}

// tracedRun is one traced repetition: its wall time, spans, layer
// breakdown, per-layer metrics and report digest.
type tracedRun struct {
	wall   float64
	tr     *tracer
	rows   []row
	total  float64 // workers x wall
	layers map[string]float64
	outcome
}

// finish computes the breakdown of a traced run over the given layers.
func (t *tracedRun) finish(layers []string, busy map[string]float64) {
	t.total = workers * t.wall
	t.rows = breakdown(t.total, layers, busy)
	t.layers["unattributed_s"] = t.rows[len(t.rows)-1].Seconds
}

// Layer names of the breakdown rows. The set-up row is sweep.NewRunner
// (workload resolution and graph.build) or the lease controller's
// construction, which adds the journal header.
const (
	layerSetup     = "setup"
	layerRunTrials = "sweep.run_trials"
	layerAggregate = "sweep.aggregate"
	layerNext      = "experiment.next"
	layerFold      = "experiment.fold"
	layerAdmit     = "experiment.admit"
	layerReport    = "experiment.report"
	layerWait      = "experiment.worker_wait"
	layerLeaseWire = "fabric.lease_overhead"
	layerIdle      = "fabric.worker_idle"
)

// traceSweep runs a fixed sweep traced: a pool of workers over
// Runner.RunTrials with one trial per job, as sweep.Run schedules solo
// trials, then the report aggregated from the trial rows exactly as
// sweep.Run aggregates them. probeTrials trials per cell feed the
// allocation probe.
func traceSweep(spec sweep.Spec, probeTrials int) (*tracedRun, error) {
	runtime.GC()
	tr := newTracer(1 + workers)
	t0 := time.Now()
	root := tr.begin(0, "run", noParent)
	su := tr.begin(0, layerSetup, root)
	r, err := sweep.NewRunner(spec)
	tr.end(su)
	if err != nil {
		return nil, err
	}
	cells := len(r.Cells())
	rows := make([][]sweep.Trial, cells)
	for i := range rows {
		rows[i] = make([]sweep.Trial, spec.Trials)
	}
	phase := tr.begin(0, "trials", root)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			sims := &radio.SimCache{}
			for {
				job := int(next.Add(1)) - 1
				if job >= cells*spec.Trials {
					return
				}
				ci, t := job/spec.Trials, job%spec.Trials
				s := tr.begin(lane, layerRunTrials, phase)
				r.RunTrials(ci, t, t+1, sims, rows[ci][t:t+1])
				tr.end(s)
			}
		}(1 + w)
	}
	wg.Wait()
	tr.end(phase)
	ag := tr.begin(0, layerAggregate, root)
	rep := aggregateSweep(r, spec, rows)
	tr.end(ag)
	tr.end(root)
	wall := time.Since(t0).Seconds()

	o := outcome{wall: wall}
	o.trials, o.failed, o.check = checkSweep(rep)
	if o.digest, err = digestOf(rep.WriteJSON); err != nil {
		return nil, err
	}
	var all []sweep.Trial
	perCell := make([]int, cells)
	for i := range rows {
		all = append(all, rows[i]...)
		perCell[i] = len(rows[i])
	}
	o.check = errors.Join(o.check, checkTrials(all))
	busy := tr.selfTimes()
	t := &tracedRun{wall: wall, tr: tr, outcome: o, layers: map[string]float64{}}
	t.sweepLayers(r, busy[layerRunTrials], tr.count(layerRunTrials), all, perCell, probeTrials)
	t.radioFromRows(all, all, busy[layerRunTrials])
	t.finish([]string{layerSetup, layerRunTrials, layerAggregate}, busy)
	return t, nil
}

// aggregateSweep folds per-trial rows into a sweep.Report the way
// sweep.Run does, so the traced run's digest must equal the untraced
// one's.
func aggregateSweep(r *sweep.Runner, spec sweep.Spec, rows [][]sweep.Trial) *sweep.Report {
	rep := &sweep.Report{MasterSeed: spec.MasterSeed, Trials: spec.Trials}
	if name := r.Workload().Name(); name != "broadcast" {
		rep.Workload = name
	}
	for i, c := range r.Cells() {
		g := r.Graph(i)
		cr := sweep.CellReport{Graph: g.Name(), N: g.N(), Model: c.Model.String(),
			Algorithm: c.Algorithm.String(), Params: c.Point.Label, Fault: c.Fault.Label(),
			Trials: len(rows[i])}
		n := len(rows[i])
		slots, maxE, totE, events := stats.NewStream(n), stats.NewStream(n), stats.NewStream(n), stats.NewStream(n)
		var extras []*stats.Stream
		var extraNames []string
		for _, tr := range rows[i] {
			if tr.Err != "" {
				cr.Errors++
				continue
			}
			if tr.Completed {
				cr.Completed++
			}
			slots.Add(float64(tr.Slots))
			maxE.Add(float64(tr.MaxEnergy))
			totE.Add(float64(tr.TotalEnergy))
			events.Add(float64(tr.Events))
			if extras == nil && len(tr.Extra) > 0 {
				for _, s := range tr.Extra {
					extras = append(extras, stats.NewStream(n))
					extraNames = append(extraNames, s.Name)
				}
			}
			if len(tr.Extra) == len(extras) {
				for k, s := range tr.Extra {
					extras[k].Add(s.X)
				}
			}
		}
		cr.Slots, cr.MaxEnergy, cr.TotalEnergy, cr.Events = slots.Summarize(), maxE.Summarize(), totE.Summarize(), events.Summarize()
		for k, st := range extras {
			cr.Extra = append(cr.Extra, sweep.ExtraColumn{Name: extraNames[k], Summary: st.Summarize()})
		}
		rep.Cells = append(rep.Cells, cr)
	}
	return rep
}

// checkTrials asserts the energy invariant MaxEnergy <= Slots on every
// trial row.
func checkTrials(rows []sweep.Trial) error {
	for i, tr := range rows {
		if tr.Err == "" && uint64(tr.MaxEnergy) > tr.Slots {
			return fmt.Errorf("trial %d (seed %d): max energy %d exceeds %d slots", i, tr.Seed, tr.MaxEnergy, tr.Slots)
		}
	}
	return nil
}

// traceAdaptive runs the adaptive workload traced: the lease controller
// driven in the order of experiment.Run's local loop — Next on the
// driving goroutine, RunTrials and FoldBatch on workers fed through an
// unbuffered job channel, Admit as results arrive — so its report must
// be byte-identical to the untraced run's.
func traceAdaptive(cfg experiment.Config) (*tracedRun, error) {
	defer os.Remove(cfg.Checkpoint)
	runtime.GC()
	tr := newTracer(1 + workers)
	t0 := time.Now()
	root := tr.begin(0, "run", noParent)
	su := tr.begin(0, layerSetup, root)
	lc, err := experiment.NewLeaseController(cfg)
	tr.end(su)
	if err != nil {
		return nil, err
	}
	r := lc.Runner()
	tracked := make([][]workload.MeasureInfo, len(r.Cells()))
	for i := range tracked {
		tracked[i] = experiment.TrackedMeasures(r, i)
	}
	phase := tr.begin(0, "trials", root)
	type result struct {
		lease experiment.Lease
		rec   *experiment.BatchRecord
		rows  []sweep.Trial
	}
	jobs := make(chan experiment.Lease)
	results := make(chan result, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			sims := &radio.SimCache{}
			wait := tr.begin(lane, layerWait, phase)
			for l := range jobs {
				tr.end(wait)
				rows := make([]sweep.Trial, l.Hi-l.Lo)
				s := tr.begin(lane, layerRunTrials, phase)
				r.RunTrials(l.Cell, l.Lo, l.Hi, sims, rows)
				tr.end(s)
				s = tr.begin(lane, layerFold, phase)
				rec := experiment.FoldBatch(tracked[l.Cell], l.Cell, l.Lo, l.Hi, rows)
				tr.end(s)
				wait = tr.begin(lane, layerWait, phase)
				results <- result{l, rec, rows}
			}
			tr.end(wait)
		}(1 + w)
	}
	next := func() (experiment.Lease, bool) {
		s := tr.begin(0, layerNext, phase)
		defer tr.end(s)
		return lc.Next()
	}
	ran := map[experiment.Lease][]sweep.Trial{}
	admitted, dropped, outstanding := 0, 0, 0
	var runErr error
	pending, have := next()
	for {
		if (lc.Done() || runErr != nil) && outstanding == 0 {
			break
		}
		var jch chan experiment.Lease
		if have && runErr == nil {
			jch = jobs
		}
		if jch == nil && outstanding == 0 {
			break
		}
		select {
		case jch <- pending:
			outstanding++
			pending, have = next()
		case res := <-results:
			outstanding--
			ran[res.lease] = res.rows
			s := tr.begin(0, layerAdmit, phase)
			fresh, err := lc.Admit(res.rec)
			tr.end(s)
			runErr = errors.Join(runErr, err)
			if fresh {
				admitted++
			} else {
				dropped++
			}
			if !have {
				pending, have = next()
			}
		}
	}
	close(jobs)
	wg.Wait()
	tr.end(phase)
	rs := tr.begin(0, layerReport, root)
	rep := lc.Report()
	tr.end(rs)
	tr.end(root)
	wall := time.Since(t0).Seconds()
	if err := errors.Join(runErr, lc.Close()); err != nil {
		return nil, err
	}

	o, err := experimentOutcome(rep, wall, 0, 0)
	if err != nil {
		return nil, err
	}
	// Committed rows: each cell's first Batches batches of the grid.
	norm := lc.Config()
	var all, committed []sweep.Trial
	perCell := make([]int, len(r.Cells()))
	for l, rows := range ran {
		all = append(all, rows...)
		perCell[l.Cell] += len(rows)
	}
	for i, c := range rep.Cells {
		for b := 0; b < c.Batches; b++ {
			lo := b * norm.BatchSize
			committed = append(committed, ran[experiment.Lease{Cell: i, Lo: lo, Hi: min(lo+norm.BatchSize, norm.MaxTrials)}]...)
		}
	}
	o.check = errors.Join(o.check, checkTrials(all))
	if len(committed) != o.trials {
		o.check = errors.Join(o.check, fmt.Errorf("committed rows %d, report trials %d", len(committed), o.trials))
	}
	busy := tr.selfTimes()
	t := &tracedRun{wall: wall, tr: tr, outcome: o, layers: map[string]float64{}}
	t.sweepLayers(r, busy[layerRunTrials], tr.count(layerRunTrials), all, perCell, norm.BatchSize)
	t.radioFromRows(committed, all, busy[layerRunTrials])
	t.layers["experiment.next_s"] = busy[layerNext]
	t.layers["experiment.fold_s"] = busy[layerFold]
	t.layers["experiment.admit_s"] = busy[layerAdmit]
	t.layers["experiment.worker_wait_s"] = busy[layerWait]
	t.layers["experiment.batches_admitted"] = float64(admitted)
	t.layers["experiment.batches_dropped"] = float64(dropped)
	t.layers["experiment.wasted_trial_frac"] = frac(len(all)-len(committed), len(all))
	if err := t.journalLayers(cfg.Checkpoint, admitted); err != nil {
		t.check = errors.Join(t.check, err)
	}
	t.finish([]string{layerSetup, layerRunTrials, layerFold, layerNext, layerAdmit, layerReport}, busy)
	return t, nil
}

// traceFabric runs fabric-2w with the workers dialing a counting relay in
// front of the coordinator. The workers' internals are out of the
// benchmark's reach, so the layers come from the relay's frame log: a
// lease's round trip runs from the lease frame passing the relay to the
// result frame answering it, a worker idles from its welcome or result
// frame to its next lease frame, and the execute time inside each round
// trip is the batch time the worker's own telemetry snapshot reports on
// its last result frame.
func traceFabric(cfg experiment.Config) (*tracedRun, error) {
	defer os.Remove(cfg.Checkpoint)
	fr, err := fabricRun(cfg, true)
	if err != nil {
		return nil, err
	}
	o, rep, rl := fr.outcome, fr.rep, fr.rl
	tr := newTracer(1 + workers)
	tr.origin = fr.start
	seconds := func(x float64) time.Time { return fr.start.Add(time.Duration(x * float64(time.Second))) }
	root := tr.record(0, "run", noParent, fr.start, seconds(o.wall))
	tr.record(0, layerSetup, root, fr.start, seconds(o.setup))

	frames := rl.log()
	sort.SliceStable(frames, func(i, j int) bool { return frames[i].at.Before(frames[j].at) })
	var upBytes, downBytes, telemetryBytes, leases, reissued, results, resultTrials int
	seen := map[experiment.Lease]bool{}
	var rtts, handshakes []float64
	var exec float64
	lastTelemetry := map[int]json.RawMessage{}
	type connState struct {
		hello, idleFrom time.Time
		out             map[experiment.Lease]time.Time
	}
	conns := map[int]*connState{}
	for _, f := range frames {
		cs := conns[f.conn]
		if cs == nil {
			cs = &connState{out: map[experiment.Lease]time.Time{}}
			conns[f.conn] = cs
		}
		lane := 1 + f.conn%workers
		if f.up {
			upBytes += f.bytes
			telemetryBytes += f.telemetryBytes
		} else {
			downBytes += f.bytes
		}
		switch f.typ {
		case "hello":
			cs.hello = f.at
		case "welcome":
			handshakes = append(handshakes, f.at.Sub(cs.hello).Seconds())
			cs.idleFrom = f.at
		case "lease":
			leases++
			if seen[f.lease] {
				reissued++
			}
			seen[f.lease] = true
			cs.out[f.lease] = f.at
			if !cs.idleFrom.IsZero() {
				tr.record(lane, layerIdle, root, cs.idleFrom, f.at)
				cs.idleFrom = time.Time{}
			}
		case "result":
			results++
			resultTrials += f.lease.Hi - f.lease.Lo
			if at, ok := cs.out[f.lease]; ok {
				tr.record(lane, "fabric.lease", root, at, f.at)
				rtts = append(rtts, f.at.Sub(at).Seconds())
				delete(cs.out, f.lease)
			}
			if len(cs.out) == 0 {
				cs.idleFrom = f.at
			}
			lastTelemetry[f.conn] = f.telemetry
		case "done":
			if !cs.idleFrom.IsZero() {
				tr.record(lane, layerIdle, root, cs.idleFrom, f.at)
				cs.idleFrom = time.Time{}
			}
		}
	}
	var batches, trialsRun float64
	for _, raw := range lastTelemetry {
		var s telemetry.Snapshot
		if err := json.Unmarshal(raw, &s); err != nil {
			return nil, fmt.Errorf("relay: worker telemetry: %w", err)
		}
		h := s.Latencies[telemetry.LatencyBatch]
		exec += h.SumSeconds
		batches += float64(h.Count)
		trialsRun += float64(s.TrialsRun)
	}

	busy := tr.selfTimes()
	busy[layerRunTrials] = exec
	busy[layerLeaseWire] = busy["fabric.lease"] - exec
	t := &tracedRun{wall: o.wall, tr: tr, outcome: o, layers: map[string]float64{}}

	// Graph, allocation and radio layers come from a local runner over the
	// same spec; per-trial radio counts from the report's committed moments.
	r, err := sweep.NewRunner(cfg.Spec)
	if err != nil {
		return nil, err
	}
	perCell := make([]int, len(r.Cells()))
	for l := range seen {
		perCell[l.Cell] += l.Hi - l.Lo
	}
	t.graphLayers(r, exec, perCell)
	t.allocLayers(r, cfg.BatchSize)
	t.layers["sweep.run_trials_s"] = exec
	t.layers["sweep.s_per_trial"] = exec / trialsRun
	t.layers["sweep.batches"] = batches
	slots, events := committedSums(rep)
	t.layers["radio.slots_per_trial"] = slots / float64(o.trials)
	t.layers["radio.events_per_trial"] = events / float64(o.trials)
	t.layers["radio.ns_per_event"] = 1e9 * exec / trialsRun / (events / float64(o.trials))

	records, err := journalRecords(cfg.Checkpoint)
	if err != nil {
		return nil, err
	}
	t.layers["experiment.batches_admitted"] = float64(records)
	t.layers["experiment.batches_dropped"] = float64(results - records)
	t.layers["experiment.wasted_trial_frac"] = frac(resultTrials-o.trials, resultTrials)
	t.layers["experiment.worker_wait_s"] = busy[layerIdle]
	if err := t.journalLayers(cfg.Checkpoint, records); err != nil {
		t.check = errors.Join(t.check, err)
	}

	t.layers["fabric.up_bytes_per_lease"] = frac(upBytes, leases)
	t.layers["fabric.down_bytes_per_lease"] = frac(downBytes, leases)
	t.layers["fabric.frames_per_lease"] = frac(len(frames), leases)
	t.layers["fabric.telemetry_bytes_frac"] = frac(telemetryBytes, upBytes)
	t.layers["fabric.lease_rtt_p50_s"] = quantile(rtts, 0.5)
	t.layers["fabric.lease_rtt_p99_s"] = quantile(rtts, 0.99)
	t.layers["fabric.worker_idle_s"] = busy[layerIdle]
	t.layers["fabric.reissued_leases"] = float64(reissued)
	t.layers["fabric.handshake_s"] = mean(handshakes)
	t.finish([]string{layerSetup, layerRunTrials, layerLeaseWire, layerIdle}, busy)
	return t, nil
}

// sweepLayers fills the graph and sweep layers of a run whose RunTrials
// calls the benchmark timed itself. perCell counts the trials run in
// each cell.
func (t *tracedRun) sweepLayers(r *sweep.Runner, runTrials float64, calls int, all []sweep.Trial, perCell []int, probeTrials int) {
	t.graphLayers(r, runTrials, perCell)
	t.allocLayers(r, probeTrials)
	t.layers["sweep.run_trials_s"] = runTrials
	t.layers["sweep.s_per_trial"] = runTrials / float64(len(all))
	t.layers["sweep.batches"] = float64(calls)
}

// radioFromRows fills the radio layer: exact per-trial slot and event
// counts over the committed rows, and RunTrials time per simulated event
// over every row run.
func (t *tracedRun) radioFromRows(committed, all []sweep.Trial, runTrials float64) {
	var slots, events, runEvents uint64
	for _, tr := range committed {
		slots += tr.Slots
		events += tr.Events
	}
	for _, tr := range all {
		runEvents += tr.Events
	}
	t.layers["radio.slots_per_trial"] = float64(slots) / float64(len(committed))
	t.layers["radio.events_per_trial"] = float64(events) / float64(len(committed))
	t.layers["radio.ns_per_event"] = 1e9 * runTrials / float64(runEvents)
}

// graphLayers probes the graph layer outside the run: one Topology.Build
// per cell (graph.build_s) and one Diameter() per cell graph
// (graph.diameter_s). graph.diameter_share estimates the part of
// RunTrials time a per-trial diameter computation would take:
// sum over cells of diameter time x trials run, over RunTrials time.
func (t *tracedRun) graphLayers(r *sweep.Runner, runTrials float64, perCell []int) {
	var build, diam, perTrial float64
	for i, c := range r.Cells() {
		t0 := time.Now()
		if _, err := c.Topology.Build(); err != nil {
			t.check = errors.Join(t.check, err)
		}
		build += time.Since(t0).Seconds()
		t0 = time.Now()
		if _, err := r.Graph(i).Diameter(); err != nil {
			t.check = errors.Join(t.check, err)
		}
		d := time.Since(t0).Seconds()
		diam += d
		perTrial += d * float64(perCell[i])
	}
	t.layers["graph.build_s"] = build
	t.layers["graph.diameter_s"] = diam
	t.layers["graph.diameter_share"] = perTrial / runTrials
}

// allocLayers probes RunTrials' allocations on one goroutine: after a
// warm-up batch of n trials per cell on a fresh simulator cache, the next
// n trials of every cell are measured.
func (t *tracedRun) allocLayers(r *sweep.Runner, n int) {
	sims := &radio.SimCache{}
	buf := make([]sweep.Trial, n)
	cells := len(r.Cells())
	for c := range cells {
		r.RunTrials(c, 0, n, sims, buf)
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for c := range cells {
		r.RunTrials(c, n, 2*n, sims, buf)
	}
	runtime.ReadMemStats(&m1)
	trials := float64(n * cells)
	t.layers["sweep.allocs_per_trial"] = float64(m1.Mallocs-m0.Mallocs) / trials
	t.layers["sweep.alloc_bytes_per_trial"] = float64(m1.TotalAlloc-m0.TotalAlloc) / trials
}

// journalLayers fills the journal metrics from the checkpoint file and
// checks that it holds one record per admitted batch after its header.
func (t *tracedRun) journalLayers(path string, admitted int) error {
	st, err := os.Stat(path)
	if err != nil {
		return err
	}
	records, err := journalRecords(path)
	if err != nil {
		return err
	}
	t.layers["experiment.journal_bytes"] = float64(st.Size())
	t.layers["experiment.journal_bytes_per_batch"] = frac(int(st.Size()), records)
	if records != admitted {
		return fmt.Errorf("journal holds %d batch records, %d batches admitted", records, admitted)
	}
	return nil
}

// journalRecords counts the batch records of a checkpoint journal: its
// frames (uint32 LE length, uint32 CRC, payload) minus the header.
func journalRecords(path string) (int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	frames := 0
	for off := 0; off < len(data); frames++ {
		if off+8 > len(data) {
			return 0, fmt.Errorf("journal %s: torn frame at byte %d", path, off)
		}
		off += 8 + int(uint32(data[off])|uint32(data[off+1])<<8|uint32(data[off+2])<<16|uint32(data[off+3])<<24)
		if off > len(data) {
			return 0, fmt.Errorf("journal %s: torn frame", path)
		}
	}
	return frames - 1, nil
}

// committedSums returns the committed slot and event totals of an
// adaptive report: each cell's mean times its sample count, rounded (the
// moments hold integer samples).
func committedSums(rep *experiment.Report) (slots, events float64) {
	for _, c := range rep.Cells {
		if m := measureOf(c, "slots"); m != nil {
			slots += math.Round(m.Mean * float64(m.Count))
		}
		if m := measureOf(c, "events"); m != nil {
			events += math.Round(m.Mean * float64(m.Count))
		}
	}
	return slots, events
}

func frac(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
