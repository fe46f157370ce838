package cluster

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/labeling"
	"repro/internal/radio"
)

// runWithLabels runs a Broadcaster over a fixed good labeling and returns
// informed flags and the radio result.
func runWithLabels(t *testing.T, g *graph.Graph, model radio.Model, labels []int,
	source, d int, seed uint64) ([]bool, *radio.Result) {
	t.Helper()
	n := g.N()
	// Sweeps need the shared bound; use n as the paper does.
	layers := n
	sr := NewSpec(model, n, g.MaxDegree())
	informed := make([]bool, n)
	devs := make([]radio.Device, n)
	for v := 0; v < n; v++ {
		devs[v].Proc = broadcasterProc(&Broadcaster{SR: sr, Layers: layers,
			Label: labels[v], Has: v == source, Msg: "M"}, 1, d, &informed[v])
	}
	res, err := radio.RunDevices(radio.Config{Graph: g, Model: model, Seed: seed}, devs)
	if err != nil {
		t.Fatal(err)
	}
	return informed, res
}

func TestBroadcastSingleClusterPath(t *testing.T) {
	// BFS labeling from vertex 0 on a path; source at the far end must
	// reach everyone with d=0 (single root).
	for _, model := range []radio.Model{radio.Local, radio.CD, radio.NoCD} {
		g := graph.Path(10)
		labels := g.BFS(0)
		informed, _ := runWithLabels(t, g, model, labels, 9, 0, 3)
		for v, ok := range informed {
			if !ok {
				t.Errorf("%v: vertex %d not informed", model, v)
			}
		}
	}
}

func TestBroadcastTwoClusters(t *testing.T) {
	// Path with two roots at the ends; d=1 covers the two-cluster graph.
	g := graph.Path(8)
	labels := []int{0, 1, 2, 3, 3, 2, 1, 0}
	if err := labeling.Labeling(labels).Validate(g); err != nil {
		t.Fatal(err)
	}
	for _, model := range []radio.Model{radio.Local, radio.CD, radio.NoCD} {
		informed, _ := runWithLabels(t, g, model, labels, 0, 1, 5)
		for v, ok := range informed {
			if !ok {
				t.Errorf("%v: vertex %d not informed", model, v)
			}
		}
	}
}

func TestBroadcastManyClustersNeedsD(t *testing.T) {
	// All-zero labeling: every vertex is a root; G_L = G, so d must be
	// the graph diameter.
	g := graph.Path(6)
	labels := make([]int, 6)
	d, _ := g.Diameter()
	informed, _ := runWithLabels(t, g, radio.Local, labels, 0, d, 1)
	for v, ok := range informed {
		if !ok {
			t.Errorf("vertex %d not informed", v)
		}
	}
}

func TestBroadcastInsufficientDFailsFar(t *testing.T) {
	// With d=0 on an all-zero labeling of a long path, the message cannot
	// cross the whole graph: Up-cast(no-op) + final Down-cast(no-op)
	// leaves only All-cast-free propagation. Distant vertices stay dark.
	g := graph.Path(12)
	labels := make([]int, 12)
	informed, _ := runWithLabels(t, g, radio.Local, labels, 0, 0, 1)
	if informed[11] {
		t.Error("far vertex informed with d=0 and 12 singleton clusters")
	}
}

func TestBroadcastEnergyCheapForDistantIdlers(t *testing.T) {
	// CD model with pre-check: vertices far from the action should pay
	// O(1) per window they are scheduled into.
	g := graph.Path(10)
	labels := g.BFS(0)
	_, res := runWithLabels(t, g, radio.CD, labels, 0, 0, 2)
	// No vertex should spend more than a small multiple of the relevant
	// window count.
	for v, e := range res.Energy {
		if e > 120 {
			t.Errorf("vertex %d spent %d energy", v, e)
		}
	}
}

// runRefine runs a Refiner per vertex over old labels; becomeRoot is
// evaluated per vertex at window start with the device's random stream.
func runRefine(t *testing.T, g *graph.Graph, model radio.Model, old []int,
	becomeRoot func(ch radio.Channel, v int) bool, seed uint64) []int {
	t.Helper()
	n := g.N()
	sr := NewSpec(model, n, g.MaxDegree())
	newLabels := make([]int, n)
	devs := make([]radio.Device, n)
	for v := 0; v < n; v++ {
		v := v
		devs[v].Proc = radio.ContProc(func(ch radio.Channel) radio.Cont {
			r := &Refiner{SR: sr, Layers: n, Old: old[v]}
			return r.RefineCont(1, 1, becomeRoot(ch, v), radio.Do(func() {
				newLabels[v] = r.New
			}, nil))
		})
	}
	if _, err := radio.RunDevices(radio.Config{Graph: g, Model: model, Seed: seed}, devs); err != nil {
		t.Fatal(err)
	}
	return newLabels
}

func TestRefineProducesGoodLabeling(t *testing.T) {
	for _, model := range []radio.Model{radio.Local, radio.CD, radio.NoCD} {
		g := graph.GNP(18, 0.25, 2)
		old := make([]int, g.N())
		newLabels := runRefine(t, g, model, old,
			func(ch radio.Channel, v int) bool { return ch.Rand().Float64() < 0.5 }, 9)
		if err := labeling.Labeling(newLabels).Validate(g); err != nil {
			t.Errorf("%v: refined labeling invalid: %v", model, err)
		}
	}
}

func TestRefineNoNewRoots(t *testing.T) {
	// Roots in L' are a subset of roots in L.
	g := graph.GNP(20, 0.2, 4)
	old := g.BFS(0) // single root at 0
	newLabels := runRefine(t, g, radio.Local, old,
		func(ch radio.Channel, v int) bool {
			return old[v] == 0 && ch.Rand().Float64() < 0.5
		}, 2)
	for v, l := range newLabels {
		if l == 0 && old[v] != 0 {
			t.Errorf("vertex %d became a new root", v)
		}
	}
	if err := labeling.Labeling(newLabels).Validate(g); err != nil {
		t.Errorf("invalid: %v", err)
	}
}

func TestRefineAllTailsKeepsLabeling(t *testing.T) {
	// If no root takes the coin (becomeRoot false everywhere), every
	// vertex retains its old label.
	g := graph.Grid(3, 4)
	old := g.BFS(0)
	newLabels := runRefine(t, g, radio.Local, old,
		func(radio.Channel, int) bool { return false }, 2)
	for v := range newLabels {
		if newLabels[v] != old[v] {
			t.Errorf("vertex %d: label changed %d -> %d with no new roots", v, old[v], newLabels[v])
		}
	}
}

func TestSpecSlotsByModel(t *testing.T) {
	sl := NewSpec(radio.Local, 16, 4)
	if sl.Slots() != 1 {
		t.Errorf("LOCAL window = %d, want 1", sl.Slots())
	}
	sc := NewSpec(radio.CD, 16, 4)
	if sc.Slots() != sc.CD.Slots() {
		t.Error("CD window mismatch")
	}
	if !sc.CD.Precheck {
		t.Error("CD spec must enable the Remark 9 pre-check")
	}
	sn := NewSpec(radio.NoCD, 16, 4)
	if sn.Slots() != sn.Decay.Slots() {
		t.Error("No-CD window mismatch")
	}
	// Degenerate delta is clamped.
	s0 := NewSpec(radio.NoCD, 4, 0)
	if s0.Decay.Delta != 1 {
		t.Error("delta not clamped")
	}
}

func TestBroadcastSlotsFormula(t *testing.T) {
	sr := NewSpec(radio.Local, 8, 3)
	// layers=8, d=2: sweep = 7 slots; total = 7 + 2*(14+1) + 7 = 44.
	if got := BroadcastSlots(sr, 8, 2); got != 44 {
		t.Errorf("BroadcastSlots = %d, want 44", got)
	}
	if got := RefineSlots(sr, 8, 1); got != 7+7+1+7 {
		t.Errorf("RefineSlots = %d, want 22", got)
	}
	// Degenerate single layer.
	if got := BroadcastSlots(sr, 1, 0); got != 0 {
		t.Errorf("BroadcastSlots(layers=1,d=0) = %d, want 0", got)
	}
}

func TestBroadcasterScheduleAgreement(t *testing.T) {
	// Every device must finish the broadcast at the same schedule end:
	// verified by having them all transmit at the first post-broadcast
	// slot and checking nobody fails on clock violations.
	g := graph.Cycle(6)
	labels := g.BFS(0)
	sr := NewSpec(radio.CD, 6, 2)
	end := BroadcastSlots(sr, 6, 0)
	devs := make([]radio.Device, 6)
	for v := 0; v < 6; v++ {
		v := v
		devs[v].Proc = radio.ContProc(func(ch radio.Channel) radio.Cont {
			b := &Broadcaster{SR: sr, Layers: 6,
				Label: labels[v], Has: v == 0, Msg: 1}
			b.Reset(1, 0)
			return radio.ProcCont(b, radio.EvalCh(func(ch radio.Channel) radio.Cont {
				if ch.Now() > end {
					t.Errorf("device %d: clock %d past schedule end %d", v, ch.Now(), end)
				}
				// Must not violate clocks: every device's schedule ends
				// strictly before 1+end.
				return radio.Then(radio.Transmit(1+end, "sync"), nil)
			}))
		})
	}
	if _, err := radio.RunDevices(radio.Config{Graph: g, Model: radio.CD, Seed: 1}, devs); err != nil {
		t.Fatal(err)
	}
}
