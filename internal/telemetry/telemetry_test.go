package telemetry

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// A nil recorder (telemetry disabled) must no-op on every hook — the
// instrumentation sites call them unconditionally.
func TestNilRecorderNoOps(t *testing.T) {
	var r *Recorder
	if r.Enabled() {
		t.Fatal("nil recorder reports enabled")
	}
	r.StartCells([]string{"a"})
	r.TraceMeasures([]string{"slots"})
	r.Shards(4)
	if sh := r.Shard(0); sh != nil {
		t.Fatalf("nil recorder returned shard %v", sh)
	}
	var sh *Shard
	sh.BatchStart()
	sh.BatchDone(0, 10, 100, time.Millisecond)
	sh.SetCache(CacheCounts{SoloHits: 1})
	r.CommitTrials(0, 10)
	r.CellDone(0, "done")
	r.Trace(0, 0, 10, []float64{0.5})
	r.JournalFsync(time.Millisecond)
	r.LeaseRoundTrip(time.Millisecond)
	r.Add(3, 30)
	r.Phase("x")
	r.SetEventLog(nil)
	r.Event("cell-start", map[string]any{"cell": "a"})
	r.WorkerSeen("w", "addr", "v1")
	r.WorkerShard("w", Snapshot{TrialsRun: 1})
	r.WorkerGone("w")
	if ws := r.FleetWorkers(); ws != nil {
		t.Fatalf("nil fleet = %v", ws)
	}
	r.AddMetrics(func(io.Writer) {})
	r.WriteMetrics(io.Discard)
	var h *Histogram
	h.Observe(time.Millisecond)
	var lg *EventLog
	lg.Event("x", nil)
	if err := lg.Close(); err != nil {
		t.Fatalf("nil event log close = %v", err)
	}
	if s := r.Snapshot(); s.TrialsRun != 0 || s.TrialsCommitted != 0 || len(s.Latencies) != 0 {
		t.Fatalf("nil snapshot = %+v", s)
	}
	if cs := r.Cells(); cs != nil {
		t.Fatalf("nil cells = %v", cs)
	}
	stop := r.StartProgress(io.Discard, time.Millisecond, 0, false)
	stop()
	stop() // idempotent
}

func TestShardMergeAndCells(t *testing.T) {
	r := New()
	r.StartCells([]string{"cell-a", "cell-b"})
	r.Shards(3)
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sh := r.Shard(w)
			for b := 0; b < 5; b++ {
				sh.BatchStart()
				sh.BatchDone(w%2, 10, 1000, time.Millisecond)
			}
			sh.SetCache(CacheCounts{SoloHits: 7, SoloMisses: 1})
			r.CommitTrials(w%2, 50)
		}(w)
	}
	wg.Wait()
	r.CellDone(0, "done")
	r.CellDone(0, "again") // second reason must not double-count
	s := r.Snapshot()
	if s.TrialsRun != 150 || s.TrialsCommitted != 150 {
		t.Fatalf("trials run/committed = %d/%d, want 150/150", s.TrialsRun, s.TrialsCommitted)
	}
	if s.SlotsSimulated != 15000 {
		t.Fatalf("slots = %d, want 15000", s.SlotsSimulated)
	}
	if s.BatchesInFlight != 0 {
		t.Fatalf("inflight = %d, want 0", s.BatchesInFlight)
	}
	if want := (CacheCounts{SoloHits: 21, SoloMisses: 3}); s.SimCache != want {
		t.Fatalf("cache = %+v, want %+v", s.SimCache, want)
	}
	if s.CellsTotal != 2 || s.CellsDone != 1 {
		t.Fatalf("cells %d/%d, want 1/2", s.CellsDone, s.CellsTotal)
	}
	cells := r.Cells()
	// Workers 0 and 2 hit cell 0 (2x50 commits), worker 1 hit cell 1.
	if cells[0].Trials != 100 || cells[1].Trials != 50 {
		t.Fatalf("cell trials = %d/%d, want 100/50", cells[0].Trials, cells[1].Trials)
	}
	if cells[0].Stop != "done" || cells[1].Stop != "" {
		t.Fatalf("stops = %q/%q", cells[0].Stop, cells[1].Stop)
	}
	if cells[0].WallSeconds <= 0 {
		t.Fatalf("cell 0 wall = %v, want > 0", cells[0].WallSeconds)
	}
}

// Shard out-of-range and unknown cells must be safe (the recorder is
// advisory; a stray index must never panic a run).
func TestShardBounds(t *testing.T) {
	r := New()
	r.StartCells([]string{"only"})
	r.Shards(1)
	if sh := r.Shard(5); sh != nil {
		t.Fatal("out-of-range shard not nil")
	}
	sh := r.Shard(0)
	sh.BatchStart()
	sh.BatchDone(7, 1, 1, 0) // cell 7 does not exist
	r.CommitTrials(-1, 5)
	r.CellDone(99, "done")
	r.Trace(99, 0, 1, nil)
	if s := r.Snapshot(); s.TrialsCommitted != 5 || s.TrialsRun != 1 {
		t.Fatalf("snapshot = %+v", s)
	}
}

// Non-finite relative CI values must serialize as the -1 sentinel so a
// trace is always valid JSON.
func TestTraceSanitizesNonFinite(t *testing.T) {
	r := New()
	r.StartCells([]string{"c"})
	nan := 0.0 / zero
	inf := 1.0 / zero
	r.Trace(0, 0, 10, []float64{nan, inf, -inf, 0.25})
	tr := r.Cells()[0].Trace
	if len(tr) != 1 {
		t.Fatalf("trace len = %d", len(tr))
	}
	want := []float64{-1, -1, -1, 0.25}
	for i, x := range tr[0].RelCI {
		if x != want[i] {
			t.Fatalf("relCI[%d] = %v, want %v", i, x, want[i])
		}
	}
	if _, err := json.Marshal(r.StatusDoc()); err != nil {
		t.Fatalf("status doc not marshalable: %v", err)
	}
}

// zero defeats constant folding (1.0/0 is a compile error; 1.0/zero is
// runtime +Inf).
var zero = 0.0

func TestPhasesAndManifest(t *testing.T) {
	r := New()
	r.StartCells([]string{"a", "b"})
	r.TraceMeasures([]string{"slots"})
	r.Phase("resolve")
	r.Phase("trials")
	r.CommitTrials(0, 10)
	r.Trace(0, 0, 10, []float64{0.5})
	r.CellDone(0, "ci")
	m := r.BuildManifest("test", map[string]int{"n": 8}, map[string]int{"max": 100}, 4)
	if m.Workers != 4 {
		t.Fatalf("workers = %d", m.Workers)
	}
	if len(m.Phases) != 2 || m.Phases[0].Name != "resolve" || m.Phases[1].Name != "trials" {
		t.Fatalf("phases = %+v", m.Phases)
	}
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var round Manifest
	if err := json.Unmarshal(buf.Bytes(), &round); err != nil {
		t.Fatalf("manifest does not round-trip: %v", err)
	}
	if round.Snapshot.TrialsCommitted != 10 {
		t.Fatalf("round-trip committed = %d", round.Snapshot.TrialsCommitted)
	}
}

// DeterministicJSON must exclude every timing and scheduling-dependent
// counter: two manifests differing only in those must produce identical
// bytes.
func TestDeterministicJSONExcludesTimings(t *testing.T) {
	build := func(extraRun int, wall time.Duration) []byte {
		r := New()
		r.StartCells([]string{"a"})
		r.TraceMeasures([]string{"slots"})
		r.Shards(2)
		sh := r.Shard(0)
		sh.BatchStart()
		sh.BatchDone(0, 10+extraRun, uint64(100*(extraRun+1)), wall)
		sh.SetCache(CacheCounts{SoloHits: uint64(extraRun)})
		r.JournalFsync(wall)
		r.CommitTrials(0, 10)
		r.Trace(0, 0, 10, []float64{0.125})
		r.CellDone(0, "ci")
		m := r.BuildManifest("test", map[string]int{"n": 8}, nil, 2+extraRun)
		b, err := m.DeterministicJSON()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a := build(0, time.Millisecond)
	b := build(7, time.Hour)
	if !bytes.Equal(a, b) {
		t.Fatalf("deterministic JSON differs:\n%s\nvs\n%s", a, b)
	}
	if strings.Contains(string(a), "wallSeconds") || strings.Contains(string(a), "elapsed") {
		t.Fatalf("deterministic JSON leaks timings:\n%s", a)
	}
}

func TestStatusServer(t *testing.T) {
	r := New()
	r.StartCells([]string{"clique-8/No-CD/auto"})
	r.CommitTrials(0, 42)
	addr, shutdown, err := StartStatusServer("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()
	get := func(path string) *http.Response {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return resp
	}
	resp := get("/status")
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/status = %d", resp.StatusCode)
	}
	var doc Status
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("/status not JSON: %v", err)
	}
	if doc.Snapshot.TrialsCommitted != 42 || len(doc.Cells) != 1 {
		t.Fatalf("status doc = %+v", doc)
	}
	for _, path := range []string{"/debug/pprof/", "/"} {
		resp := get(path)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s = %d", path, resp.StatusCode)
		}
	}
	resp = get("/nope")
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/nope = %d, want 404", resp.StatusCode)
	}
}

func TestStartProgressReportsAndStops(t *testing.T) {
	r := New()
	r.StartCells([]string{"a"})
	r.CommitTrials(0, 500)
	var mu sync.Mutex
	var buf bytes.Buffer
	w := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return buf.Write(p)
	})
	stop := r.StartProgress(w, 5*time.Millisecond, 1000, true)
	time.Sleep(20 * time.Millisecond)
	stop()
	mu.Lock()
	out := buf.String()
	mu.Unlock()
	if !strings.Contains(out, "500/<=1000 trials") {
		t.Fatalf("progress output %q lacks trial counts", out)
	}
	if !strings.Contains(out, "ETA <=") {
		t.Fatalf("progress output %q lacks upper-bound ETA", out)
	}
	if !strings.HasSuffix(out, "\n") {
		t.Fatalf("final progress line not newline-terminated: %q", out)
	}
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }
