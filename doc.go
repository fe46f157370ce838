// Package repro reproduces "The Energy Complexity of Broadcast" by
// Chang, Dani, Hayes, He, Li and Pettie (PODC 2018, arXiv:1710.01800):
// energy-aware Broadcast algorithms for multi-hop radio networks under
// the No-CD, CD, CD* and LOCAL collision models, both randomized and
// deterministic, together with the discrete-event radio-network simulator
// they run on, lower-bound experiment harnesses, the classical decay
// baseline, a parallel Monte-Carlo sweep engine, and a benchmark suite
// regenerating the shape of every row of the paper's Table 1 and its
// Figure 1.
//
// # Energy model
//
// Energy is awake-slot count, exactly as the paper defines it: a device
// is charged 1 for every slot in which it is not idle — transmitting,
// listening, or both at once (full duplex). A TransmitListen slot
// therefore costs 1 unit, not 2, although the Transmits/Listens action
// counters still advance by one each. This gives the repo-wide invariant
// MaxEnergy() <= Slots, which the integration tests enforce on random
// graphs.
//
// # Engine architecture
//
// internal/radio executes devices against a slot-synchronous scheduler
// through a single coroutine-style ABI: a device is a radio.Proc, a
// resumable step function Step(ch, feedback) -> Action that the
// scheduler drives inline on its own goroutine — no per-device
// goroutine, no park/wake per action, just one function call per
// device decision. The paper's algorithms are slot-driven state
// machines by construction, and every protocol package ships a native
// step machine. The flagship Theorem 16 device (dtime) is one flat
// machine that allocates nothing while it runs: its windows are an
// in-place cluster.Window and its closing broadcast the
// cluster.Broadcaster step machine. Deeply nested passes (detcast,
// cdmerge, iterclust, partition, coloring) are still written against
// radio.Cont, a continuation-passing layer over the same interface that
// rebuilds closures per window, and nest the cluster machines through
// radio.ProcCont; procs nest under virtual channels (coloring's
// Theorem 3 simulation) by plain composition.
//
// Cohorts are ordered (slot, then device index) by a min-heap of runs:
// each stretch of devices that posted the same slot side by side in one
// round is queued as one linked run, so a lockstep cohort costs one
// queue entry, and runs from different rounds that interleave on a slot
// are sorted on release. The event stream is deterministic and pinned
// byte-for-byte by the golden trace test in internal/radio/testdata.
//
// Transmit payloads are interned in per-device mailbox cells for exactly
// one slot (listeners resolve them at delivery; the cells are cleared
// when the slot completes, so large payloads are collectable mid-run),
// small non-constant integers can be boxed allocation-free through
// radio.BoxInt's simulator-wide interning table, and collision
// resolution walks the topology's cached CSR adjacency — sorted by
// graph-construction invariant — with model-aware early exit.
//
// The engine is reusable: radio.NewSimulator preallocates envs,
// mailboxes, random streams and scheduler scratch once, and
// Run/RunDevices resets everything per run, allocating only the Result.
// The sweep engine keeps one radio.SimCache per worker (threaded
// through core.WithSimCache), so thousands of Monte-Carlo trials on
// one topology stop churning the allocator. BENCH_pr4.json records
// the step-ABI reference measurement (5.6-6.3x over the deleted PR-3
// goroutine engine with -97% to -99% allocations), and the hot loop
// stays at 0 allocs/op (BenchmarkSimulatorThroughput, a CI gate). Every
// trial runs on this one path. graph.Diameter computes the diameter
// once per graph and stores it, so trials on a shared topology share no
// further work worth batching: advancing several trials in lockstep on
// one scheduler measured slower than running them one after another.
//
// # Monte-Carlo sweeps
//
// internal/sweep runs a declarative matrix of topologies x models x
// algorithms x workload-parameter points, thousands of trials at a
// time, on a worker pool. Its reproducible-seed contract: every trial's
// seed derives only from the master seed and the trial's position in
// the matrix (sweep.TrialSeed), never from scheduling, so aggregate
// JSON/CSV output is bit-identical for any worker count or GOMAXPROCS.
// The cmd/sweep CLI exposes the matrix with a compact flag syntax, e.g.
//
//	sweep -topo path:64,128 -topo gnp:32:p=0.25 \
//	      -models local,nocd -algos auto -trials 1000 -json out.json
//
// # Fault model
//
// internal/fault makes robustness a first-class sweep dimension: three
// deterministic fault kinds injected at the engine's slot boundary —
// crash-stop (a device halts forever and is charged nothing further),
// sleep faults (a device is forced idle, its action suppressed, for a
// window of slots), and lossy slots (a delivery that would have
// succeeded is erased for one listener). Fault decisions come from a
// dedicated positional hash stream (fault.Plan.Fires(device, slot)),
// derived from the trial seed on a reserved child index disjoint from
// every device stream, and consume no protocol randomness: a plan at
// rate 0 reproduces the golden slot trace and golden sweep report byte
// for byte, and at any rate the injected fault set is a pure function
// of (seed, device, slot) — bit-identical for any worker count. The
// awake-slot invariant MaxEnergy() <= Slots survives injection, since
// faults only ever remove awake slots.
//
// Faulted broadcast and msrc cells additionally run a same-seed
// fault-free twin and report graceful-degradation columns — success,
// informedFrac, energyOverhead (signed, vs the twin), wastedAwake —
// which are CI-eligible stopping targets for adaptive runs. The sweep
// matrix gains an innermost fault axis (CLI: repeated
// -fault kind:rates[:w=window]), fault labels appear in reports, CSV
// and cell telemetry only when a spec is active, injected-fault
// counters land in telemetry snapshots and the manifest's
// deterministic section, and the checkpoint journal carries per-batch
// fault counts so resumed runs rebuild identical totals. The journal
// frame parser itself is fuzzed (internal/experiment's
// FuzzJournalRead): corrupted checkpoints are detected and re-run,
// never wrongly resumed.
//
// # Adaptive runs and checkpoint/resume
//
// internal/experiment layers an adaptive controller above the sweep
// engine: cells run in trial batches, each cell maintains mergeable
// Welford moment state (internal/stats.Moments) per measure, and stops
// independently once every targeted measure's Student-t relative CI
// half-width is within the goal — dense cells that converge in hundreds
// of trials release their workers to the long-path cells that need tens
// of thousands. Stop decisions are evaluated only on batch-ordered
// prefix merges, so each cell's committed trial count — and the report's
// serialized bytes — are identical for any worker count. With a
// checkpoint configured, every completed batch is appended to a
// CRC-framed, fsync'd journal; positional seeding means a batch's
// identity is just its trial range, so resuming after a crash (even a
// SIGKILL that tears the trailing record) re-runs only unjournaled
// batches and produces aggregate JSON byte-identical to an
// uninterrupted run. The CLI spelling is
//
//	sweep -topo path:128,256 -models nocd,cd \
//	      -ci 0.01 -ci-measure slots,maxEnergy \
//	      -min-trials 200 -max-trials 200000 \
//	      -checkpoint run.ckpt -json out.json
//	sweep -resume run.ckpt -json out.json   # after a kill
//
// Workloads declare per-measure CI eligibility metadata
// (workload.CIMeasures): conditional columns like leader's
// success-only election slot are rejected as stopping targets.
//
// # Observability
//
// internal/telemetry instruments the sweep worker pool and the adaptive
// controller without perturbing either results or performance: a nil
// *telemetry.Recorder no-ops every hook, and a live one is touched once
// per trial or trial batch — per-worker padded shards of atomic
// counters merged only on read, never on the per-slot path
// (BenchmarkSweepTelemetry pins on/off parity; the simulator hot loop
// stays 0 allocs/op either way). On top of the counters the recorder
// keeps per-cell convergence traces (relative CI half-width per
// committed batch of an adaptive run), phase timings, and mergeable
// power-of-two latency histograms (batch execution, checkpoint fsync,
// fabric lease round-trip; recording is one bits.Len64 and an atomic
// add, 0 allocs/op). cmd/sweep and cmd/sweepd surface it as -status
// addr (live JSON snapshot at /status, a dependency-free Prometheus
// text exposition at /metrics — counters, gauges, and the latency
// histograms — plus net/http/pprof on the same mux), -progress
// (one-line stderr reporter with ETA from the trial-commit rate),
// -events path (a JSONL flight recorder: one line per lifecycle event
// — cell start/stop with reason, batch commits, checkpoint fsyncs,
// phase transitions, and on a coordinator worker join/leave and lease
// grant/steal/release — appended as it happens), and a run manifest —
// spec, seeds, worker/batch config, per-cell trials, wall-clock and
// stop reasons, phase timings — written next to every -json report as
// <report>.manifest.json (or to -manifest; "none" disables). The
// manifest's deterministic fields (committed counts, labels, stop
// reasons, traces) are bit-identical for any worker count and batch
// width, like the reports they describe; timings, speculation
// counters, latency histograms, and the fleet table are explicitly
// excluded from that pin. scripts/status_smoke.sh exercises the whole
// surface end to end in CI, including a mid-run /metrics scrape,
// jq-validating the event log, and byte-comparing an instrumented
// run's report against a telemetry-off run's.
//
// # Distributed sweeps
//
// internal/fabric splits one run across machines without giving up a
// single determinism guarantee: a coordinator (cmd/sweepd) owns the
// experiment — spec, adaptive stopping decisions, checkpoint journal —
// and hands out (cell, lo, hi) batch leases over a length-prefixed
// TCP/JSON protocol to workers started with `sweep -worker addr`.
// Workers build their own Runner from the handshook spec (seeds are
// positional, so both sides resolve the identical trial stream), fold
// executed batches into records (experiment.FoldBatch) with moment
// state in a stable binary encoding (stats wire codec), and stream
// them back; the coordinator admits results through the same
// batch-ordered prefix-merge rule the local drive loop uses
// (experiment.LeaseController). Report JSON and the manifest's
// deterministic section are byte-identical to a single-machine run at
// any worker count. Fault tolerance is lease-based: workers silent
// past the lease timeout are evicted and their batches reissued, a
// SIGKILLed worker's dead socket returns its leases immediately,
// outstanding batches are duplicated to idle workers near the end of a
// run (admission deduplicates, so a twice-run batch merges exactly
// once), and workers redial with bounded backoff across coordinator
// restarts, which resume from the journal. Both sides stamp their code
// version (telemetry.CodeVersion) into the handshake and mixed
// versions are refused — byte-identity across machines is only claimed
// at one code version. Observability is fleet-wide: each worker runs a
// process-lifetime Recorder and ships its merged snapshot inside every
// heartbeat and result frame, and the coordinator folds the shards
// into its own Snapshot (telemetry.WorkerShard) so /status, /metrics
// (with per-worker lease gauges), the manifest's fleet table — name,
// resolved address, code version, last shard — and the -events log
// cover every machine; an evicted worker's last shard is retained and
// flagged stale, and a re-joining worker's counters resume
// monotonically. scripts/fabric_smoke.sh runs the whole story in CI:
// coordinator plus two workers, one SIGKILLed mid-run, a live /metrics
// scrape, event-log and fleet-table validation, report byte-compared
// against the single-machine reference.
//
// # Workloads
//
// The per-trial scenario is pluggable: internal/workload keeps a
// registry of scenarios, each exposing a name, a parameter schema, and
// a Run(graph, point, seed, opts) contract returning the measured
// columns. Four are built in:
//
//   - broadcast: single-source broadcast (the default; its reports are
//     byte-identical with the pre-workload engine);
//   - msrc: k-source broadcast via core.WithSources, reporting the
//     per-source informed fronts (core.Result.InformedBy);
//   - leader: single-hop leader election over internal/leader — the
//     paper's Lemma 8 subroutine — measuring success rate, election
//     slot, agreement and energy;
//   - tradeoff: Theorem 16's continuous time/energy dial over
//     internal/dtime, one matrix cell per beta (or eps) grid value.
//
// Grid-valued parameters (comma lists) expand into one matrix cell per
// point, and the cell index — including the point — feeds the seed
// derivation, so workload sweeps inherit the bit-identical-aggregates
// guarantee. The CLI spelling is
//
//	sweep -topo clique:16,64 -models cd,nocd \
//	      -workload leader -wparam proto=rand,det -trials 1000
//
// See internal/sweep/README.md for the registry contract and
// examples/workloads for a walkthrough.
//
// Entry points:
//
//   - internal/core: the Broadcast façade over every algorithm
//     (single- and multi-source);
//   - internal/radio: the simulator (time slots, collision semantics,
//     per-device awake-slot energy metering, run-queue slot scheduler);
//   - internal/sweep: the parallel Monte-Carlo experiment engine;
//   - internal/experiment: the adaptive CI-stopping controller with
//     journaled checkpoint/resume above it;
//   - internal/workload: the pluggable scenario registry it fans out
//     over;
//   - internal/fault: the deterministic fault-injection plans behind
//     the sweep matrix's fault axis;
//   - internal/telemetry: the zero-overhead-when-disabled run
//     instrumentation behind -status, -progress and run manifests;
//   - cmd/energybench, cmd/sweep, cmd/pathtrace, cmd/broadcastcli: the
//     evaluation suite, the matrix sweep CLI, the Figure 1 regenerator,
//     and a one-shot CLI;
//   - bench_test.go: testing.B benchmarks, one per experiment, plus
//     scheduler and sweep-scaling microbenchmarks.
package repro
