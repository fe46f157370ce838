package main

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"net"
	"testing"
	"time"

	"repro/internal/experiment"
	"repro/internal/sweep"
)

// smallConfig is the adaptive spec capped at 400 trials per cell: the
// same code paths as adaptive-ckpt in a fraction of a second.
func smallConfig(b *bench) experiment.Config {
	cfg := adaptiveConfig(9, b.journalPath())
	cfg.MaxTrials = 400
	return cfg
}

func smallSpec() sweep.Spec {
	spec := mustSpec(5, "cd", "dtime", "star:64")
	spec.Lean = true
	spec.Trials = 8
	return spec
}

// assertAddsUp checks the breakdown idiom: the rows, unattributed last,
// sum to workers x wall, and their shares to one.
func assertAddsUp(t *testing.T, rows []row, total float64) {
	t.Helper()
	if len(rows) == 0 || rows[len(rows)-1].Layer != unattributed {
		t.Fatalf("breakdown %+v does not end with an unattributed row", rows)
	}
	var sum, share float64
	for _, r := range rows {
		sum += r.Seconds
		share += r.Share
	}
	if math.Abs(sum-total) > 1e-9*total || math.Abs(share-1) > 1e-9 {
		t.Fatalf("rows sum to %v s (share %v), want %v s (share 1): %+v", sum, share, total, rows)
	}
}

func TestBreakdownSumsToTotal(t *testing.T) {
	busy := map[string]float64{"a": 1.5, "b": 0.25, "ignored": 9}
	rows := breakdown(2, []string{"a", "b", "absent"}, busy)
	assertAddsUp(t, rows, 2)
	if got := rows[len(rows)-1].Seconds; got != 0.25 {
		t.Fatalf("unattributed = %v, want 0.25", got)
	}
	if rows[2].Seconds != 0 {
		t.Fatalf("a layer without spans must read 0, got %v", rows[2].Seconds)
	}
}

func TestSelfTimeSubtractsSameLaneChildren(t *testing.T) {
	tr := newTracer(2)
	o := tr.origin
	at := func(ms int) time.Time { return o.Add(time.Duration(ms) * time.Millisecond) }
	root := tr.record(0, "run", noParent, at(0), at(100))
	tr.record(0, "setup", root, at(0), at(10))
	tr.record(1, "work", root, at(10), at(90)) // other lane: runs beside root
	busy := tr.selfTimes()
	if math.Abs(busy["run"]-0.090) > 1e-9 || math.Abs(busy["setup"]-0.010) > 1e-9 || math.Abs(busy["work"]-0.080) > 1e-9 {
		t.Fatalf("self times = %v", busy)
	}
}

func TestTracedSweepMatchesUntraced(t *testing.T) {
	spec := smallSpec()
	o, err := runSweep(spec)
	if err != nil || o.check != nil {
		t.Fatalf("untraced: %v, %v", err, o.check)
	}
	tr, err := traceSweep(spec, 1)
	if err != nil || tr.check != nil {
		t.Fatalf("traced: %v, %v", err, tr.check)
	}
	if tr.digest != o.digest {
		t.Fatalf("traced digest %s, untraced %s", tr.digest, o.digest)
	}
	assertAddsUp(t, tr.rows, workers*tr.wall)
	if tr.layers["sweep.batches"] != float64(spec.Trials) || tr.layers["radio.slots_per_trial"] <= 0 {
		t.Fatalf("layers = %v", tr.layers)
	}
}

func TestTracedAdaptiveMatchesUntraced(t *testing.T) {
	b := &bench{dir: t.TempDir()}
	o, err := runAdaptive(smallConfig(b))
	if err != nil || o.check != nil {
		t.Fatalf("untraced: %v, %v", err, o.check)
	}
	tr, err := traceAdaptive(smallConfig(b))
	if err != nil || tr.check != nil {
		t.Fatalf("traced: %v, %v", err, tr.check)
	}
	if tr.digest != o.digest {
		t.Fatalf("traced digest %s, untraced %s", tr.digest, o.digest)
	}
	assertAddsUp(t, tr.rows, workers*tr.wall)
	if tr.layers["experiment.batches_admitted"] < 1 || tr.layers["experiment.admit_s"] <= 0 {
		t.Fatalf("layers = %v", tr.layers)
	}
}

// TestRelayCountsKnownFrame sends one frame each way through the relay
// and checks both the forwarded bytes and the counts.
func TestRelayCountsKnownFrame(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	rl, err := startRelay(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	worker, err := net.Dial("tcp", rl.addr())
	if err != nil {
		t.Fatal(err)
	}
	coord, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	telemetry := `{"trialsRun":20,"latencies":{"batch":{"count":1,"sumSeconds":0.5}}}`
	up := encodeFrame(`{"type":"result","result":{"lease":{"cell":1,"lo":20,"hi":40},"moments":""},"telemetry":` + telemetry + `}`)
	down := encodeFrame(`{"type":"lease","lease":{"cell":1,"lo":40,"hi":60}}`)
	if _, err := worker.Write(up); err != nil {
		t.Fatal(err)
	}
	if got := readN(t, coord, len(up)); !bytes.Equal(got, up) {
		t.Fatalf("relay changed the upward frame: %q", got)
	}
	if _, err := coord.Write(down); err != nil {
		t.Fatal(err)
	}
	if got := readN(t, worker, len(down)); !bytes.Equal(got, down) {
		t.Fatalf("relay changed the downward frame: %q", got)
	}
	worker.Close()
	coord.Close()
	rl.close()

	frames := rl.log()
	if len(frames) != 2 {
		t.Fatalf("relay logged %d frames, want 2: %+v", len(frames), frames)
	}
	var u, d frame
	for _, f := range frames {
		if f.up {
			u = f
		} else {
			d = f
		}
	}
	if u.bytes != len(up) || u.typ != "result" || u.lease != (experiment.Lease{Cell: 1, Lo: 20, Hi: 40}) ||
		u.telemetryBytes != len(telemetry) || string(u.telemetry) != telemetry {
		t.Fatalf("upward frame logged as %+v", u)
	}
	if d.bytes != len(down) || d.typ != "lease" || d.lease != (experiment.Lease{Cell: 1, Lo: 40, Hi: 60}) || d.telemetryBytes != 0 {
		t.Fatalf("downward frame logged as %+v", d)
	}
}

// TestRelayedFabricMatchesLocal checks that relaying forwards the fabric's
// bytes unchanged: the relayed run's report equals the local controller's
// and the direct fabric run's.
func TestRelayedFabricMatchesLocal(t *testing.T) {
	b := &bench{dir: t.TempDir()}
	local, err := runAdaptive(smallConfig(b))
	if err != nil || local.check != nil {
		t.Fatalf("local: %v, %v", err, local.check)
	}
	direct, err := runFabric(smallConfig(b))
	if err != nil || direct.check != nil {
		t.Fatalf("direct fabric: %v, %v", err, direct.check)
	}
	tr, err := traceFabric(smallConfig(b))
	if err != nil || tr.check != nil {
		t.Fatalf("relayed fabric: %v, %v", err, tr.check)
	}
	if direct.digest != local.digest || tr.digest != local.digest {
		t.Fatalf("digests: local %s, direct %s, relayed %s", local.digest, direct.digest, tr.digest)
	}
	assertAddsUp(t, tr.rows, workers*tr.wall)
	if tr.layers["fabric.frames_per_lease"] < 2 || tr.layers["fabric.telemetry_bytes_frac"] <= 0 ||
		tr.layers["sweep.run_trials_s"] <= 0 || tr.layers["fabric.handshake_s"] <= 0 {
		t.Fatalf("layers = %v", tr.layers)
	}
}

// TestPinnedDigests runs every workload once at its default seed.
func TestPinnedDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full workloads")
	}
	b := &bench{dir: t.TempDir()}
	for _, sc := range scenarios {
		o, err := sc.run(b, sc.defaultSeed)
		if err != nil || o.check != nil {
			t.Fatalf("%s: %v, %v", sc.name, err, o.check)
		}
		if o.digest != sc.pin {
			t.Errorf("%s: digest %s, pinned %s", sc.name, o.digest, sc.pin)
		}
	}
}

func encodeFrame(payload string) []byte {
	buf := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	return append(buf, payload...)
}

func readN(t *testing.T, r io.Reader, n int) []byte {
	t.Helper()
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		t.Fatal(err)
	}
	return buf
}
