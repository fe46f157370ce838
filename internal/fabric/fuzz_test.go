package fabric

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"repro/internal/experiment"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// frame encodes m through the production writer.
func frame(tb testing.TB, m *msg) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := writeMsg(&buf, m); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// rawFrame prefixes payload with a length header claiming n bytes.
func rawFrame(n uint32, payload string) []byte {
	b := binary.LittleEndian.AppendUint32(nil, n)
	return append(b, payload...)
}

// readMsgSeeds returns the seed frames FuzzReadMsg starts from: one
// honest frame of every worker-to-coordinator and coordinator-to-worker
// kind that carries data, plus the broken shapes a hostile or torn
// stream produces.
func readMsgSeeds(tb testing.TB) map[string][]byte {
	tb.Helper()
	ms := make([]stats.Moments, 2)
	for i := range ms {
		ms[i].Add(float64(i + 3))
		ms[i].Add(float64(2*i + 7))
	}
	moments := stats.EncodeMoments(ms)
	snap := &telemetry.Snapshot{
		ElapsedSeconds: 1.5, TrialsRun: 40, SlotsSimulated: 8400,
		Latencies: map[string]telemetry.HistogramSnapshot{
			"lease": {Count: 2, SumSeconds: 0.004, Buckets: []uint64{0, 1, 1}},
		},
	}
	result := &resultMsg{
		Lease:     experiment.Lease{Cell: 1, Lo: 20, Hi: 40},
		Completed: 19, Errors: 1, Crashes: 2,
		Moments: moments, Slots: 8400,
	}
	hello := frame(tb, &msg{Type: msgHello, Hello: &helloMsg{Name: "w1", Version: "repro@(devel)", Capacity: 2}})
	emptyMap := `{"type":"heartbeat","telemetry":{"latencies":{}}}`
	nan := append([]byte(nil), moments...)
	binary.LittleEndian.PutUint64(nan[8:16], math.Float64bits(math.NaN())) // mean of record 0
	return map[string][]byte{
		"hello":     hello,
		"welcome":   frame(tb, &msg{Type: msgWelcome, Welcome: &welcomeMsg{Version: "repro@(devel)", Spec: testSpec(), HeartbeatMillis: 200}}),
		"lease":     frame(tb, &msg{Type: msgLease, Lease: &experiment.Lease{Cell: 1, Lo: 20, Hi: 40}}),
		"result":    frame(tb, &msg{Type: msgResult, Result: result, Telemetry: snap}),
		"heartbeat": frame(tb, &msg{Type: msgHeartbeat, Telemetry: snap}),
		// An empty map decodes non-nil but is omitted on re-encoding.
		"heartbeat-empty-latencies": rawFrame(uint32(len(emptyMap)), emptyMap),
		"truncated-header":          hello[:2],
		"truncated-payload":         hello[:len(hello)-3],
		"oversize-length":           rawFrame(maxFrame+1, `{"type":"hello"}`),
		"bad-json":                  rawFrame(9, `{"type":"`),
		"moments-short": frame(tb, &msg{Type: msgResult, Result: &resultMsg{
			Lease: result.Lease, Completed: 20, Moments: moments[:len(moments)-7]}}),
		"moments-nan": frame(tb, &msg{Type: msgResult, Result: &resultMsg{
			Lease: result.Lease, Completed: 20, Moments: nan}}),
	}
}

// FuzzReadMsg fuzzes the fabric frame reader, the parser every byte a
// TCP peer sends goes through. No input may panic readMsg or, on a
// result frame, the record conversion. Every frame readMsg accepts must
// survive a writeMsg/readMsg round trip: the re-read message encodes to
// the same wire bytes as the accepted one, and is then a fixed point
// (the first re-encoding may only drop empty omitempty maps and slices,
// which the wire cannot tell from absent ones). An accepted record's
// moments re-encode to the frame's bytes.
func FuzzReadMsg(f *testing.F) {
	seeds := readMsgSeeds(f)
	names := make([]string, 0, len(seeds))
	for name := range seeds {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f.Add(seeds[name])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := readMsg(bytes.NewReader(data))
		if err != nil {
			return
		}
		if m.Result != nil {
			if rec, err := m.Result.record(); err == nil {
				if rec.Validate() != nil {
					t.Fatal("record() accepted an invalid batch record")
				}
				if !bytes.Equal(stats.EncodeMoments(rec.Moments), m.Result.Moments) {
					t.Fatal("accepted moments do not re-encode to the frame's bytes")
				}
			}
		}
		var buf bytes.Buffer
		if err := writeMsg(&buf, m); err != nil {
			t.Fatalf("accepted frame does not re-encode: %v", err)
		}
		wire := append([]byte(nil), buf.Bytes()...)
		m2, err := readMsg(&buf)
		if err != nil {
			t.Fatalf("re-encoded frame unreadable: %v", err)
		}
		if !bytes.Equal(frame(t, m2), wire) {
			t.Fatal("re-read message encodes differently")
		}
		m3, err := readMsg(bytes.NewReader(wire))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(m2, m3) {
			t.Fatal("re-read message is not a fixed point of the round trip")
		}
	})
}

// updateFuzzCorpus rewrites the committed seed corpus under
// testdata/fuzz/FuzzReadMsg. Run with -update-fuzz-corpus after an
// intentional wire format change.
var updateFuzzCorpus = flag.Bool("update-fuzz-corpus", false, "rewrite the committed frame fuzz corpus")

// TestReadMsgFuzzCorpus keeps the committed corpus in sync with the
// wire format: the corpus directory must hold every seed frame (go test
// replays each entry through FuzzReadMsg even without -fuzz), each seed
// must be accepted or refused as its name says, and -update-fuzz-corpus
// regenerates the corpus from the production writer.
func TestReadMsgFuzzCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzReadMsg")
	seeds := readMsgSeeds(t)
	if *updateFuzzCorpus {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for name, data := range seeds {
			body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
			if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		t.Logf("rewrote %s", dir)
		return
	}
	refused := map[string]bool{
		"truncated-header": true, "truncated-payload": true,
		"oversize-length": true, "bad-json": true,
		"moments-short": true, "moments-nan": true,
	}
	for name, data := range seeds {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Fatalf("committed fuzz corpus entry missing (regenerate with -update-fuzz-corpus): %v", err)
		}
		m, err := readMsg(bytes.NewReader(data))
		if err == nil && m.Result != nil {
			_, err = m.Result.record()
		}
		if (err != nil) != refused[name] {
			t.Errorf("seed %s: error %v, want refused=%v", name, err, refused[name])
		}
	}
}
