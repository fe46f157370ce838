package telemetry

// Prometheus exposition of the recorder's state, dependency-free: the
// text format (version 0.0.4) is a handful of HELP/TYPE comment lines
// and `name{labels} value` samples, which is all a scraper needs. The
// /metrics endpoint is mounted by StartStatusServer next to /status, so
// both cmd/sweep and cmd/sweepd export without extra wiring.

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// MetricsContentType is the exposition content type /metrics serves.
const MetricsContentType = "text/plain; version=0.0.4; charset=utf-8"

// AddMetrics registers an appender that contributes extra families to
// WriteMetrics — how the fabric coordinator exports per-worker lease
// gauges next to the recorder's own counters. Appenders run on the
// scrape goroutine and must not block.
func (r *Recorder) AddMetrics(fn func(io.Writer)) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.metricAppenders = append(r.metricAppenders, fn)
	r.mu.Unlock()
}

// WriteMetrics writes the recorder's state in Prometheus text
// exposition format: run counters, cell gauges, fault and simulator-
// cache counters, every latency histogram in the snapshot (fleet
// workers' histograms merged in), then the registered appenders'
// families. A nil recorder writes nothing, which is a valid (empty)
// exposition.
func (r *Recorder) WriteMetrics(w io.Writer) {
	if r == nil {
		return
	}
	s := r.Snapshot()
	writeMetric(w, "sweep_elapsed_seconds", "gauge",
		"Wall-clock seconds since the recorder started.", s.ElapsedSeconds)
	writeMetric(w, "sweep_trials_committed_total", "counter",
		"Trials merged into committed state (deterministic for a fixed spec).", float64(s.TrialsCommitted))
	writeMetric(w, "sweep_trials_run_total", "counter",
		"Trials executed, including adaptive speculation and duplicated leases.", float64(s.TrialsRun))
	writeMetric(w, "sweep_slots_simulated_total", "counter",
		"Simulated slots summed over executed trials.", float64(s.SlotsSimulated))
	writeMetric(w, "sweep_batches_in_flight", "gauge",
		"Trial batches currently executing.", float64(s.BatchesInFlight))
	writeMetric(w, "sweep_cells", "gauge",
		"Matrix cells in the run.", float64(s.CellsTotal))
	writeMetric(w, "sweep_cells_done", "gauge",
		"Matrix cells finished (converged, capped, or fully run).", float64(s.CellsDone))
	writeMetric(w, "sweep_journal_fsyncs_total", "counter",
		"Checkpoint-journal fsyncs (one per journaled record).", float64(s.JournalFsyncs))
	writeHeader(w, "sweep_faults_injected_total", "counter",
		"Faults injected during committed trials, by kind.")
	writeSample(w, "sweep_faults_injected_total", `kind="crash"`, float64(s.FaultCrashes))
	writeSample(w, "sweep_faults_injected_total", `kind="sleep"`, float64(s.FaultSleeps))
	writeSample(w, "sweep_faults_injected_total", `kind="erasure"`, float64(s.FaultErasures))
	writeMetric(w, "sweep_simcache_hits_total", "counter",
		"Simulator-cache hits.", float64(s.SimCache.SoloHits))
	writeMetric(w, "sweep_simcache_misses_total", "counter",
		"Simulator-cache misses.", float64(s.SimCache.SoloMisses))

	keys := make([]string, 0, len(s.Latencies))
	for k := range s.Latencies {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		writeHistogram(w, "sweep_"+camelToSnake(k)+"_seconds",
			"Latency histogram (power-of-two buckets) for "+k+".", s.Latencies[k])
	}

	r.mu.Lock()
	appenders := append([]func(io.Writer){}, r.metricAppenders...)
	r.mu.Unlock()
	for _, fn := range appenders {
		fn(w)
	}
}

// writeHeader emits a family's HELP and TYPE lines.
func writeHeader(w io.Writer, name, typ, help string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// writeSample emits one sample line; labels is the pre-escaped
// `k="v",...` body or "" for none.
func writeSample(w io.Writer, name, labels string, v float64) {
	if labels != "" {
		labels = "{" + labels + "}"
	}
	fmt.Fprintf(w, "%s%s %s\n", name, labels, formatValue(v))
}

// writeMetric emits a single-sample family.
func writeMetric(w io.Writer, name, typ, help string, v float64) {
	writeHeader(w, name, typ, help)
	writeSample(w, name, "", v)
}

// writeHistogram emits one histogram family: cumulative buckets with
// power-of-two le bounds (BucketBound), the +Inf bucket, sum, and count.
func writeHistogram(w io.Writer, name, help string, h HistogramSnapshot) {
	writeHeader(w, name, "histogram", help)
	var cum uint64
	for i, c := range h.Buckets {
		cum += c
		writeSample(w, name+"_bucket", `le="`+formatValue(BucketBound(i))+`"`, float64(cum))
	}
	writeSample(w, name+"_bucket", `le="+Inf"`, float64(h.Count))
	writeSample(w, name+"_sum", "", h.SumSeconds)
	writeSample(w, name+"_count", "", float64(h.Count))
}

// formatValue renders a sample value the shortest way that round-trips.
func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// camelToSnake maps a Latencies key to its metric-name segment
// (journalFsync -> journal_fsync).
func camelToSnake(s string) string {
	var b strings.Builder
	for _, r := range s {
		if r >= 'A' && r <= 'Z' {
			b.WriteByte('_')
			r += 'a' - 'A'
		}
		b.WriteRune(r)
	}
	return b.String()
}

// EscapeLabelValue escapes a label value per the exposition format, for
// appenders (AddMetrics) that label samples with free-form strings such
// as worker names.
func EscapeLabelValue(s string) string {
	return strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`).Replace(s)
}
