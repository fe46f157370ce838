package experiment

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/sweep"
	"repro/internal/telemetry"
)

// testSpec is a mixed easy/hard matrix under the cheap decay
// comparator: the clique cell's maxEnergy has roughly twice the
// relative spread of the path cell's, so at equal target precision it
// needs several times the trials.
func testSpec() sweep.Spec {
	return sweep.Spec{
		Topologies: []sweep.Topology{
			{Kind: "clique", N: 8},
			{Kind: "path", N: 16},
		},
		Algorithms: []core.Algorithm{core.AlgoBaselineDecay},
		MasterSeed: 7,
	}
}

func testConfig() Config {
	return Config{
		Spec:        testSpec(),
		BatchSize:   20,
		MinTrials:   40,
		MaxTrials:   2000,
		TargetRelCI: 0.004,
		Measures:    []string{"slots", "maxEnergy"},
	}
}

func reportJSON(t *testing.T, rep *Report) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestAdaptiveStopsEarlyOnEasyCells(t *testing.T) {
	cfg := testConfig()
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Cells) != 2 {
		t.Fatalf("cells: %d", len(rep.Cells))
	}
	hard, easy := rep.Cells[0], rep.Cells[1]
	if easy.Stop != "ci" {
		t.Errorf("easy cell stopped by %q, want ci (trials %d)", easy.Stop, easy.Trials)
	}
	if hard.Trials <= easy.Trials {
		t.Errorf("hard cell (%d trials) should outspend easy cell (%d trials)", hard.Trials, easy.Trials)
	}
	if rep.TotalTrials >= 2*cfg.MaxTrials {
		t.Errorf("adaptive run spent %d trials, no better than fixed %d", rep.TotalTrials, 2*cfg.MaxTrials)
	}
	// The stopping rule's own accounting: every targeted measure of a
	// ci-stopped cell is within target.
	for _, m := range easy.Measures {
		if (m.Name == "slots" || m.Name == "maxEnergy") && m.RelCI > cfg.TargetRelCI {
			t.Errorf("easy cell measure %s relCI %v above target %v", m.Name, m.RelCI, cfg.TargetRelCI)
		}
	}
}

func TestReportBitIdenticalAcrossWorkers(t *testing.T) {
	var want []byte
	for _, workers := range []int{1, 3, 8} {
		cfg := testConfig()
		cfg.Workers = workers
		rep, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		got := reportJSON(t, rep)
		if want == nil {
			want = got
		} else if !bytes.Equal(got, want) {
			t.Fatalf("workers=%d: report diverges from workers=1", workers)
		}
	}
}

func TestFixedModeRunsMaxTrials(t *testing.T) {
	cfg := testConfig()
	cfg.TargetRelCI = 0 // fixed mode: checkpointable fixed sweep
	cfg.MaxTrials = 60
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range rep.Cells {
		if c.Trials != 60 || c.Stop != "max-trials" {
			t.Errorf("cell %d: trials %d stop %q, want 60/max-trials", i, c.Trials, c.Stop)
		}
	}
}

func TestMeasureValidation(t *testing.T) {
	cfg := testConfig()
	cfg.Measures = []string{"slots", "nosuch"}
	if _, err := Run(cfg); err == nil {
		t.Error("unknown measure accepted")
	}
	// leader's electSlot is declared CI-ineligible.
	cfg = testConfig()
	cfg.Spec.Workload = "leader"
	cfg.Spec.Topologies = []sweep.Topology{{Kind: "clique", N: 8}}
	cfg.Measures = []string{"electSlot"}
	if _, err := Run(cfg); err == nil {
		t.Error("CI-ineligible measure accepted")
	}
}

func TestConfigValidation(t *testing.T) {
	cfg := testConfig()
	cfg.MaxTrials = 0
	if _, err := Run(cfg); err == nil {
		t.Error("MaxTrials=0 accepted")
	}
	cfg = testConfig()
	cfg.Confidence = 1.5
	if _, err := Run(cfg); err == nil {
		t.Error("confidence 1.5 accepted")
	}
}

// interruptAfter builds an Interrupt channel that fires once the
// progress callback has seen n merged batches.
func interruptAfter(n int) (<-chan struct{}, func(Progress)) {
	ch := make(chan struct{})
	var once sync.Once
	seen := 0
	return ch, func(Progress) {
		seen++
		if seen >= n {
			once.Do(func() { close(ch) })
		}
	}
}

func TestCheckpointResumeBitIdentical(t *testing.T) {
	dir := t.TempDir()
	clean := filepath.Join(dir, "clean.ckpt")

	cfg := testConfig()
	cfg.Checkpoint = clean
	cfg.Workers = 4
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := reportJSON(t, rep)

	for _, workers := range []int{1, 4, 8} {
		path := filepath.Join(dir, fmt.Sprintf("killed-%d.ckpt", workers))
		cfg := testConfig()
		cfg.Checkpoint = path
		cfg.Workers = workers
		cfg.Interrupt, cfg.Progress = interruptAfter(3)
		if _, err := Run(cfg); !errors.Is(err, ErrInterrupted) {
			t.Fatalf("workers=%d: interrupt returned %v, want ErrInterrupted", workers, err)
		}
		rep, err := Resume(path, ResumeConfig{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: resume: %v", workers, err)
		}
		if got := reportJSON(t, rep); !bytes.Equal(got, want) {
			t.Fatalf("workers=%d: resumed report diverges from uninterrupted run", workers)
		}
	}
}

// TestResumeLegacyBatchWHeader: journals written while sweep.Spec had a
// BatchW field carry "BatchW" in their header spec. encoding/json drops
// the unknown key, so such a journal must resume to the report and the
// deterministic manifest of an uninterrupted run.
func TestResumeLegacyBatchWHeader(t *testing.T) {
	dir := t.TempDir()
	deterministic := func(rec *telemetry.Recorder, spec sweep.Spec) []byte {
		t.Helper()
		det, err := rec.BuildManifest("sweep", spec, nil, 2).DeterministicJSON()
		if err != nil {
			t.Fatal(err)
		}
		return det
	}

	cfg := testConfig()
	cfg.Checkpoint = filepath.Join(dir, "clean.ckpt")
	cfg.Workers = 2
	cfg.Telemetry = telemetry.New()
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, wantDet := reportJSON(t, rep), deterministic(cfg.Telemetry, cfg.Spec)

	path := filepath.Join(dir, "legacy.ckpt")
	cfg = testConfig()
	cfg.Checkpoint = path
	cfg.Workers = 2
	cfg.Interrupt, cfg.Progress = interruptAfter(3)
	if _, err := Run(cfg); !errors.Is(err, ErrInterrupted) {
		t.Fatalf("interrupt returned %v, want ErrInterrupted", err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	payload, next, ok := nextFrame(raw, 0)
	if !ok {
		t.Fatal("no intact header frame")
	}
	legacy := bytes.Replace(payload, []byte(`"Lean":false`), []byte(`"Lean":false,"BatchW":16`), 1)
	if bytes.Equal(legacy, payload) {
		t.Fatalf("header spec has no Lean key to extend: %s", payload)
	}
	framed := make([]byte, 8, 8+len(legacy)+len(raw)-int(next))
	binary.LittleEndian.PutUint32(framed[0:4], uint32(len(legacy)))
	binary.LittleEndian.PutUint32(framed[4:8], crc32.Checksum(legacy, crcTable))
	framed = append(append(framed, legacy...), raw[next:]...)
	if err := os.WriteFile(path, framed, 0o644); err != nil {
		t.Fatal(err)
	}

	rec := telemetry.New()
	rep, err = Resume(path, ResumeConfig{Workers: 2, Telemetry: rec})
	if err != nil {
		t.Fatalf("resume of a legacy header: %v", err)
	}
	if got := reportJSON(t, rep); !bytes.Equal(got, want) {
		t.Fatal("resumed report diverges from uninterrupted run")
	}
	jc, err := journalRead(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := deterministic(rec, jc.header.Spec); !bytes.Equal(got, wantDet) {
		t.Fatalf("resumed deterministic manifest differs:\n%s\nvs\n%s", got, wantDet)
	}
}

func TestResumeTruncatedAndCorruptTail(t *testing.T) {
	dir := t.TempDir()
	clean := filepath.Join(dir, "clean.ckpt")
	cfg := testConfig()
	cfg.Checkpoint = clean
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := reportJSON(t, rep)
	raw, err := os.ReadFile(clean)
	if err != nil {
		t.Fatal(err)
	}

	// A SIGKILL mid-write tears the trailing record: resume must detect
	// it, re-run only the torn batch, and still produce identical bytes.
	// lastFrameStart walks the frames to the offset of the final record.
	lastFrameStart := func(b []byte) int {
		off, last := int64(0), int64(0)
		for {
			_, next, ok := nextFrame(b, off)
			if !ok {
				return int(last)
			}
			last = off
			off = next
		}
	}
	mutations := map[string]func([]byte) []byte{
		"truncated-mid-record": func(b []byte) []byte { return b[:len(b)-7] },
		"truncated-mid-frame-header": func(b []byte) []byte {
			return b[:lastFrameStart(b)+3]
		},
		"corrupt-trailing-byte": func(b []byte) []byte {
			out := append([]byte(nil), b...)
			out[len(out)-2] ^= 0xFF
			return out
		},
	}
	for name, mutate := range mutations {
		path := filepath.Join(dir, name+".ckpt")
		if err := os.WriteFile(path, mutate(raw), 0o644); err != nil {
			t.Fatal(err)
		}
		jc, err := journalRead(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !jc.torn {
			t.Errorf("%s: torn tail not detected", name)
		}
		rep, err := Resume(path, ResumeConfig{Workers: 2})
		if err != nil {
			t.Fatalf("%s: resume: %v", name, err)
		}
		if got := reportJSON(t, rep); !bytes.Equal(got, want) {
			t.Fatalf("%s: resumed report diverges from clean run", name)
		}
	}
}

func TestCheckpointRefusesToOverwrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	cfg := testConfig()
	cfg.Checkpoint = path
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	// Re-running the original command after a crash must not wipe the
	// journal; the error points at -resume.
	if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "resume") {
		t.Fatalf("existing journal overwritten (err=%v)", err)
	}
}

func TestIneligibleExtrasStillReported(t *testing.T) {
	// leader's electSlot/agree are invalid stopping targets but must
	// still appear in the adaptive report, like the fixed engine's.
	cfg := testConfig()
	cfg.Spec = sweep.Spec{
		Topologies: []sweep.Topology{{Kind: "clique", N: 6}},
		Workload:   "leader",
		MasterSeed: 7,
	}
	cfg.MaxTrials = 60
	cfg.TargetRelCI = 0 // fixed spend; we only care about the columns
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	found := map[string]bool{}
	for _, m := range rep.Cells[0].Measures {
		found[m.Name] = true
	}
	for _, want := range []string{"slots", "maxEnergy", "electSlot", "agree"} {
		if !found[want] {
			t.Errorf("adaptive report lost measure %q: have %v", want, rep.Cells[0].Measures)
		}
	}
}

func TestResumeErrors(t *testing.T) {
	if _, err := Resume(filepath.Join(t.TempDir(), "nope.ckpt"), ResumeConfig{}); err == nil {
		t.Error("missing checkpoint accepted")
	}
	// A file that is not a journal at all.
	bad := filepath.Join(t.TempDir(), "bad.ckpt")
	if err := os.WriteFile(bad, []byte("not a journal"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Resume(bad, ResumeConfig{}); err == nil {
		t.Error("garbage checkpoint accepted")
	}
}

func TestResumeOfCompleteJournalReRunsNothing(t *testing.T) {
	path := filepath.Join(t.TempDir(), "done.ckpt")
	cfg := testConfig()
	cfg.Checkpoint = path
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := reportJSON(t, rep)
	rep2, err := Resume(path, ResumeConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := reportJSON(t, rep2); !bytes.Equal(got, want) {
		t.Fatal("re-resume of a complete journal diverges")
	}
}
