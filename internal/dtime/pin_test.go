package dtime

import (
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/radio"
)

// The port pin reduces the full event stream and per-device outcomes of
// fixed scenarios to digests. The first three lines were generated from
// the blocking implementation, the lean star and two-iteration lines
// from the continuation implementation that followed it. The flat step
// machine must reproduce every line byte for byte; regenerate only with
// -update-pin and a reviewed diff.
var updatePin = flag.Bool("update-pin", false, "rewrite testdata/port_pin.txt from the current implementation")

func evString(ev radio.Event) string {
	kind := "?"
	switch ev.Kind {
	case radio.EventTransmit:
		kind = "tx"
	case radio.EventReceive:
		kind = "rx"
	case radio.EventSilence:
		kind = "sil"
	case radio.EventNoise:
		kind = "noise"
	}
	return fmt.Sprintf("%d %d %s %v %d", ev.Slot, ev.Dev, kind, ev.Payload, ev.From)
}

func comparePin(t *testing.T, got string) {
	t.Helper()
	path := filepath.Join("testdata", "port_pin.txt")
	if *updatePin {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing pin file (generate with -update-pin): %v", err)
	}
	if got != string(want) {
		t.Errorf("port pin diverged from the pre-port reference:\n got:\n%s\nwant:\n%s", got, want)
	}
}

func TestPortPin(t *testing.T) {
	// small is the one-iteration tuning of the original scenarios; lean
	// is core's WithLeanScale tuning, whose star runs take the
	// zero-iteration path (Lemma 10 Broadcast only); twoIter forces two
	// partition iterations.
	small := func(model radio.Model, n, delta, d int) (Params, error) {
		p, err := NewParamsBeta(model, n, delta, d, 0.25)
		return p.Tune(n, 4, 3, 2, 1), err
	}
	lean := func(model radio.Model, n, delta, d int) (Params, error) {
		p, err := NewParams(model, n, delta, d, 0.5)
		return p.Tune(n, 10, 6, 10, 0), err
	}
	twoIter := func(model radio.Model, n, delta, d int) (Params, error) {
		p, err := NewParamsBeta(model, n, delta, d, 0.25)
		return p.Tune(n, 3, 3, 2, 2), err
	}
	scens := []struct {
		name   string
		g      *graph.Graph
		model  radio.Model
		seed   uint64
		params func(model radio.Model, n, delta, d int) (Params, error)
	}{
		{"nocd-path6", graph.Path(6), radio.NoCD, 3, small},
		{"cd-gnp8", graph.GNP(8, 0.4, 2), radio.CD, 5, small},
		{"local-grid24", graph.Grid(2, 4), radio.Local, 9, small},
		{"cd-star64-lean", graph.Star(64), radio.CD, 7, lean},
		{"cdstar-star64-lean", graph.Star(64), radio.CDStar, 7, lean},
		{"cd-gnp16-iter2", graph.GNP(16, 0.2, 3), radio.CD, 11, twoIter},
	}
	var sb strings.Builder
	for _, sc := range scens {
		n := sc.g.N()
		d, err := sc.g.Diameter()
		if err != nil {
			t.Fatal(err)
		}
		p, err := sc.params(sc.model, n, sc.g.MaxDegree(), d)
		if err != nil {
			t.Fatal(err)
		}
		if sc.name == "cd-star64-lean" && p.Iterations != 0 {
			t.Fatalf("%s: %d iterations, want the zero-iteration path", sc.name, p.Iterations)
		}
		if sc.name == "cd-gnp16-iter2" && p.Iterations != 2 {
			t.Fatalf("%s: %d iterations, want 2", sc.name, p.Iterations)
		}
		devs := make([]DeviceResult, n)
		h := fnv.New64a()
		pop := Devices(&p, devs, func(v int) (bool, any) { return v == 0, "pin" })
		res, err := radio.RunDevices(radio.Config{Graph: sc.g, Model: p.SR.Model, Seed: sc.seed,
			MaxSlots: 1 << 62,
			Trace:    func(ev radio.Event) { fmt.Fprintln(h, evString(ev)) }}, pop)
		if err != nil {
			t.Fatalf("%s: %v", sc.name, err)
		}
		oh := fnv.New64a()
		for v, dres := range devs {
			fmt.Fprintf(oh, "%d %v %v %d %d\n", v, dres.Informed, dres.Msg, dres.Label, dres.Cluster)
		}
		fmt.Fprintf(&sb, "%s events=%d trace=%016x out=%016x slots=%d maxE=%d totE=%d\n",
			sc.name, res.Events, h.Sum64(), oh.Sum64(), res.Slots, res.MaxEnergy(), res.TotalEnergy())
	}
	comparePin(t, sb.String())
}
