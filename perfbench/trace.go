package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// The traced run records spans from the benchmark's own files, around
// its calls into each module's public functions: sweep.NewRunner,
// Runner.RunTrials, experiment.LeaseController's Next and Admit,
// experiment.FoldBatch, and the fabric's frames as a relay sees them.
// Spans stay in memory until the run ends; nothing inside the program is
// instrumented.

// spanID locates a span: its lane and its index in that lane.
type spanID struct{ lane, idx int32 }

// noParent is the parent of a root span.
var noParent = spanID{-1, -1}

// span is one timed call: a name, start and end as offsets from the
// trace origin, and the span that caused it.
type span struct {
	Name   string        `json:"name"`
	Lane   int           `json:"lane"`
	Parent spanID        `json:"-"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer keeps the spans of one traced run. Each lane is owned by one
// goroutine (lane 0 the driving goroutine, lanes 1..workers the workers),
// so recording needs no lock; spans are read only after every lane's
// goroutine has finished.
type tracer struct {
	origin time.Time
	lanes  [][]span
}

func newTracer(lanes int) *tracer {
	return &tracer{origin: time.Now(), lanes: make([][]span, lanes)}
}

// begin opens a span on lane; end closes it.
func (t *tracer) begin(lane int, name string, parent spanID) spanID {
	return t.record(lane, name, parent, time.Now(), time.Time{})
}

func (t *tracer) end(id spanID) {
	t.lanes[id.lane][id.idx].End = time.Since(t.origin)
}

// record adds a span whose start and end were observed elsewhere (the
// relay's frame log); a zero end leaves it open.
func (t *tracer) record(lane int, name string, parent spanID, start, end time.Time) spanID {
	s := span{Name: name, Lane: lane, Parent: parent, Start: start.Sub(t.origin)}
	if !end.IsZero() {
		s.End = end.Sub(t.origin)
	}
	t.lanes[lane] = append(t.lanes[lane], s)
	return spanID{int32(lane), int32(len(t.lanes[lane]) - 1)}
}

// selfTimes returns each span name's total self time in seconds: every
// span's duration minus the part its children cover. Children of one
// span never overlap on their lane, so the covered part is the sum of
// their durations; children on other lanes run beside it, not inside.
func (t *tracer) selfTimes() map[string]float64 {
	covered := map[spanID]time.Duration{}
	for lane, spans := range t.lanes {
		for _, s := range spans {
			if s.Parent == noParent || int(s.Parent.lane) != lane {
				continue
			}
			covered[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]float64{}
	for lane, spans := range t.lanes {
		for i, s := range spans {
			self := s.End - s.Start - covered[spanID{int32(lane), int32(i)}]
			out[s.Name] += self.Seconds()
		}
	}
	return out
}

// count returns how many spans carry name.
func (t *tracer) count(name string) int {
	n := 0
	for _, spans := range t.lanes {
		for _, s := range spans {
			if s.Name == name {
				n++
			}
		}
	}
	return n
}

// writeJSON writes every span as one JSON line, lane by lane.
func (t *tracer) writeJSON(w io.Writer, run string) error {
	enc := json.NewEncoder(w)
	for _, spans := range t.lanes {
		for _, s := range spans {
			rec := struct {
				Run string `json:"run"`
				span
				ParentLane int32 `json:"parent_lane"`
				ParentIdx  int32 `json:"parent_idx"`
			}{run, s, s.Parent.lane, s.Parent.idx}
			if err := enc.Encode(rec); err != nil {
				return err
			}
		}
	}
	return nil
}

// row is one line of a layer breakdown: busy worker-seconds and their
// share of the total.
type row struct {
	Layer   string
	Seconds float64
	Share   float64
}

// unattributed names the breakdown's remainder row.
const unattributed = "unattributed"

// breakdown splits total worker-seconds (workers x wall) into the named
// layers' busy time, in the given order, plus an unattributed remainder,
// so the rows always sum to total. The remainder is negative when layers
// on a non-worker goroutine (the controller's Next and Admit) overlap
// worker time.
func breakdown(total float64, layers []string, busy map[string]float64) []row {
	rows := make([]row, 0, len(layers)+1)
	rest := total
	for _, l := range layers {
		rows = append(rows, row{Layer: l, Seconds: busy[l]})
		rest -= busy[l]
	}
	rows = append(rows, row{Layer: unattributed, Seconds: rest})
	for i := range rows {
		if total > 0 {
			rows[i].Share = rows[i].Seconds / total
		}
	}
	return rows
}

// formatBreakdown renders rows as an aligned table.
func formatBreakdown(rows []row, total float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "  %-26s %12s %8s\n", "layer", "worker-s", "share")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-26s %12.6f %7.2f%%\n", r.Layer, r.Seconds, 100*r.Share)
	}
	fmt.Fprintf(&b, "  %-26s %12.6f %7.2f%%\n", "total (workers x wall)", total, 100.0)
	return b.String()
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for an empty slice).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
