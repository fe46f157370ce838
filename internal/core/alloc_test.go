package core

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/radio"
)

// TestTheorem16TrialAllocs pins the allocation count of a warm Theorem 16
// trial on the flagship lean star configuration. The device machines
// are one slab per trial, so the count must not grow with n.
func TestTheorem16TrialAllocs(t *testing.T) {
	const maxAllocs = 64
	counts := map[int]float64{}
	for _, n := range []int{64, 512} {
		g := graph.Star(n)
		var sims radio.SimCache
		seed := uint64(1)
		trial := func() {
			res, err := Broadcast(g, 0, WithModel(radio.CD), WithAlgorithm(AlgoDiamTime),
				WithLeanScale(), WithSeed(seed), WithSimCache(&sims))
			if err != nil {
				t.Fatal(err)
			}
			if !res.AllInformed() {
				t.Fatalf("star-%d seed %d: broadcast incomplete", n, seed)
			}
			seed++
		}
		trial() // warm the simulator cache and the graph's stored results
		counts[n] = testing.AllocsPerRun(20, trial)
	}
	if counts[64] != counts[512] {
		t.Errorf("allocs per trial grow with n: %v at n=64, %v at n=512", counts[64], counts[512])
	}
	if counts[512] > maxAllocs {
		t.Errorf("%v allocs per trial, want at most %d", counts[512], maxAllocs)
	}
	t.Logf("allocs per warm trial: %v", counts)
}
