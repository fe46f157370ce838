package cluster

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

var updatePin = flag.Bool("update-pin", false, "rewrite testdata/broadcaster_pin.txt from the current implementation")

// TestBroadcasterPin reduces the Lemma 10 Broadcaster's full event stream
// and final holder set on the multi-layer two-cluster labeling of
// Path(8) to digests, for every model and seeds 1-3, and checks that
// every vertex ends informed. The labeling has three sweep windows per
// Up- and Down-cast, so the pin covers the layered windows that a star
// (one layer pair) never reaches. The digests were generated from the
// continuation Broadcaster that preceded the step machine; regenerate
// only with -update-pin and a reviewed diff.
func TestBroadcasterPin(t *testing.T) {
	g := graph.Path(8)
	labels := []int{0, 1, 2, 3, 3, 2, 1, 0}
	n := g.N()
	var sb strings.Builder
	for _, model := range []radio.Model{radio.Local, radio.CD, radio.NoCD} {
		for seed := uint64(1); seed <= 3; seed++ {
			spec := NewSpec(model, n, g.MaxDegree())
			has := make([]bool, n)
			devs := make([]radio.Device, n)
			for v := 0; v < n; v++ {
				devs[v].Proc = broadcasterProc(&Broadcaster{SR: spec, Layers: n,
					Label: labels[v], Has: v == 0, Msg: "M"}, 1, 1, &has[v])
			}
			h := fnv.New64a()
			res, err := radio.RunDevices(radio.Config{Graph: g, Model: model, Seed: seed,
				Trace: func(ev radio.Event) {
					fmt.Fprintf(h, "%d %d %d %v %d\n", ev.Slot, ev.Dev, ev.Kind, ev.Payload, ev.From)
				}}, devs)
			if err != nil {
				t.Fatal(err)
			}
			for v, ok := range has {
				if !ok {
					t.Errorf("%v seed %d: vertex %d not informed", model, seed, v)
				}
			}
			fmt.Fprintf(&sb, "%v seed=%d events=%d trace=%016x slots=%d energy=%v has=%v\n",
				model, seed, res.Events, h.Sum64(), res.Slots, res.Energy, has)
		}
	}
	path := filepath.Join("testdata", "broadcaster_pin.txt")
	if *updatePin {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing pin file (generate with -update-pin): %v", err)
	}
	if got := sb.String(); got != string(want) {
		t.Errorf("broadcaster pin diverged:\n got:\n%s\nwant:\n%s", got, want)
	}
}

// broadcasterProc runs b's Broadcast(d) from start as a device and stores
// its final Has flag through has.
func broadcasterProc(b *Broadcaster, start uint64, d int, has *bool) radio.Proc {
	b.Reset(start, d)
	return radio.ProcFunc(func(ch radio.Channel, fb radio.Feedback) radio.Action {
		act := b.Step(ch, fb)
		if act.Kind == radio.ActHalt {
			*has = b.Has
		}
		return act
	})
}
