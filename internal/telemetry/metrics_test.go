package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"
)

// The /metrics endpoint must serve a well-formed text exposition: the
// right content type, HELP and TYPE lines before every family's
// samples, monotone cumulative histogram buckets, and counter values
// matching the recorder's state.
func TestMetricsExposition(t *testing.T) {
	r := New()
	r.StartCells([]string{"a", "b"})
	r.Shards(2)
	sh := r.Shard(0)
	sh.BatchStart()
	sh.BatchDone(0, 10, 1000, time.Millisecond)
	sh.SetCache(CacheCounts{SoloHits: 3, SoloMisses: 2})
	r.CommitTrials(0, 42)
	r.CommitFaults(1, 2, 3)
	r.JournalFsync(time.Microsecond)
	r.LeaseRoundTrip(2 * time.Millisecond)
	r.CellDone(0, "done")
	r.AddMetrics(func(w io.Writer) {
		fmt.Fprintf(w, "# HELP sweep_fabric_workers Connected fabric workers.\n")
		fmt.Fprintf(w, "# TYPE sweep_fabric_workers gauge\n")
		fmt.Fprintf(w, "sweep_fabric_workers 2\n")
	})

	addr, shutdown, err := StartStatusServer("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != MetricsContentType {
		t.Fatalf("content type = %q, want %q", ct, MetricsContentType)
	}

	helped := map[string]bool{}
	typed := map[string]string{}
	values := map[string]float64{}
	var order []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, help, ok := strings.Cut(rest, " ")
			if !ok || help == "" {
				t.Fatalf("HELP line without text: %q", line)
			}
			helped[name] = true
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, typ, _ := strings.Cut(rest, " ")
			switch typ {
			case "counter", "gauge", "histogram":
			default:
				t.Fatalf("bad TYPE %q in %q", typ, line)
			}
			typed[name] = typ
			continue
		}
		// Sample line: name{labels} value.
		sample, val, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("malformed sample line %q", line)
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("sample %q value does not parse: %v", line, err)
		}
		family, _, _ := strings.Cut(sample, "{")
		base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(family, "_bucket"), "_sum"), "_count")
		if !helped[family] && !helped[base] {
			t.Fatalf("sample %q has no HELP line", line)
		}
		if _, ok := typed[family]; !ok {
			if _, ok := typed[base]; !ok {
				t.Fatalf("sample %q has no TYPE line", line)
			}
		}
		values[sample] = v
		order = append(order, sample)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	if v := values["sweep_trials_committed_total"]; v != 42 {
		t.Fatalf("trials committed = %v, want 42", v)
	}
	if v := values["sweep_trials_run_total"]; v != 10 {
		t.Fatalf("trials run = %v, want 10", v)
	}
	if v := values[`sweep_faults_injected_total{kind="sleep"}`]; v != 2 {
		t.Fatalf("sleep faults = %v, want 2", v)
	}
	if v := values["sweep_fabric_workers"]; v != 2 {
		t.Fatalf("appender gauge = %v, want 2", v)
	}

	// Histogram checks: each *_bucket series must be cumulative with
	// strictly increasing le bounds, end at +Inf, and agree with _count.
	for _, fam := range []string{"sweep_batch_seconds", "sweep_journal_fsync_seconds", "sweep_lease_round_trip_seconds"} {
		if typed[fam] != "histogram" {
			t.Fatalf("%s TYPE = %q, want histogram", fam, typed[fam])
		}
		var prevCum, lastCum float64
		prevLe := -1.0
		sawInf := false
		for _, sample := range order {
			if !strings.HasPrefix(sample, fam+"_bucket{le=") {
				continue
			}
			le := strings.TrimSuffix(strings.TrimPrefix(sample, fam+`_bucket{le="`), `"}`)
			cum := values[sample]
			if cum < prevCum {
				t.Fatalf("%s not cumulative at le=%s: %v < %v", fam, le, cum, prevCum)
			}
			if le == "+Inf" {
				sawInf = true
			} else {
				bound, err := strconv.ParseFloat(le, 64)
				if err != nil {
					t.Fatalf("%s le=%q does not parse: %v", fam, le, err)
				}
				if bound <= prevLe {
					t.Fatalf("%s le bounds not increasing: %v after %v", fam, bound, prevLe)
				}
				prevLe = bound
			}
			prevCum, lastCum = cum, cum
		}
		if !sawInf {
			t.Fatalf("%s has no +Inf bucket", fam)
		}
		if count := values[fam+"_count"]; count != lastCum || count == 0 {
			t.Fatalf("%s count = %v, +Inf cum = %v", fam, count, lastCum)
		}
		if values[fam+"_sum"] <= 0 {
			t.Fatalf("%s sum = %v, want > 0", fam, values[fam+"_sum"])
		}
	}
}

func TestEscapeLabelValue(t *testing.T) {
	got := EscapeLabelValue("a\\b\"c\nd")
	if want := `a\\b\"c\nd`; got != want {
		t.Fatalf("escaped = %q, want %q", got, want)
	}
}

func TestCamelToSnake(t *testing.T) {
	for in, want := range map[string]string{
		"batch":          "batch",
		"journalFsync":   "journal_fsync",
		"leaseRoundTrip": "lease_round_trip",
	} {
		if got := camelToSnake(in); got != want {
			t.Fatalf("camelToSnake(%q) = %q, want %q", in, got, want)
		}
	}
}
