package sweep

import (
	"strings"
	"testing"

	"repro/internal/core"
)

// TestParseTopologyErrorPaths covers every rejection branch of the CLI
// topology syntax.
func TestParseTopologyErrorPaths(t *testing.T) {
	for _, bad := range []string{
		"",                   // no sizes
		"path",               // no sizes
		"path:8:p=1:extra",   // too many sections
		"path:x",             // non-numeric size
		"path:-3",            // negative size
		"path:8:p",           // option without value
		"gnp:8:p=2",          // p out of range
		"gnp:8:p=x",          // non-numeric p
		"gnp:32:p=NaN",       // NaN p (every comparison is false)
		"gnp:8:p=-Inf",       // infinite p
		"rgg:32:r=NaN",       // NaN radius
		"rgg:8:r=+Inf",       // infinite radius
		"rgg:8:r=Inf",        // infinite radius
		"rgg:8:r=0",          // non-positive radius
		"rgg:8:r=x",          // non-numeric radius
		"gnp:8:seed=x",       // non-numeric seed
		"grid:8:cols=0",      // non-positive cols
		"lollipop:8:tail=-1", // negative tail
		"gnp:8:frobnicate=1", // unknown option
	} {
		if _, err := ParseTopology(bad); err == nil {
			t.Errorf("ParseTopology(%q) accepted", bad)
		}
	}
}

func TestParseTopologyRGG(t *testing.T) {
	ts, err := ParseTopology("rgg:24,32:r=0.4,seed=9")
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != 2 || ts[0].R != 0.4 || ts[1].Seed != 9 {
		t.Fatalf("parsed %+v", ts)
	}
	g, err := ts[0].Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 24 || !g.IsConnected() {
		t.Errorf("rgg build: n=%d connected=%v", g.N(), g.IsConnected())
	}
}

// TestUnknownNamesListValidOnes is the CLI contract: unknown topology
// kinds, models, algorithms and workload parameters fail with an error
// enumerating the valid names.
func TestUnknownNamesListValidOnes(t *testing.T) {
	_, err := Topology{Kind: "frobnicate", N: 4}.Build()
	if err == nil {
		t.Fatal("unknown kind accepted")
	}
	for _, kind := range TopologyKinds() {
		if !strings.Contains(err.Error(), kind) {
			t.Errorf("kind error %q does not list %q", err, kind)
		}
	}
	if _, err = ParseModels("quantum"); err == nil {
		t.Fatal("unknown model accepted")
	}
	for _, m := range []string{"nocd", "cd", "cdstar", "local"} {
		if !strings.Contains(err.Error(), m) {
			t.Errorf("model error %q does not list %q", err, m)
		}
	}
	if _, err = ParseAlgorithms("magic"); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	for name := range AlgorithmNames() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("algorithm error %q does not list %q", err, name)
		}
	}
}

// TestEveryAlgorithmRoundTrips guards new algorithms being unreachable
// from the CLI: every core.Algorithm with a real String() name must
// parse back to itself via ParseAlgorithms.
func TestEveryAlgorithmRoundTrips(t *testing.T) {
	count := 0
	for a := core.Algorithm(0); ; a++ {
		name := a.String()
		if strings.HasPrefix(name, "Algorithm(") {
			break
		}
		count++
		got, err := ParseAlgorithms(name)
		if err != nil {
			t.Errorf("algorithm %q does not parse: %v", name, err)
			continue
		}
		if len(got) != 1 || got[0] != a {
			t.Errorf("ParseAlgorithms(%q) = %v, want [%v]", name, got, a)
		}
	}
	if count < 9 {
		t.Errorf("probed only %d algorithms; enum walk broken?", count)
	}
}

func TestParseModelsAndAlgorithmsEmptyLists(t *testing.T) {
	if _, err := ParseModels(","); err == nil {
		t.Error("empty model list accepted")
	}
	if _, err := ParseAlgorithms(" , "); err == nil {
		t.Error("empty algorithm list accepted")
	}
}

func TestParseWorkloadParams(t *testing.T) {
	if m, err := ParseWorkloadParams(nil); err != nil || m != nil {
		t.Errorf("nil input: %v %v", m, err)
	}
	m, err := ParseWorkloadParams([]string{"k=2,4", "proto = rand "})
	if err != nil {
		t.Fatal(err)
	}
	if m["k"] != "2,4" || m["proto"] != "rand" {
		t.Errorf("parsed %v", m)
	}
	if _, err := ParseWorkloadParams([]string{"novalue"}); err == nil {
		t.Error("missing = accepted")
	}
	if _, err := ParseWorkloadParams([]string{"=x"}); err == nil {
		t.Error("empty key accepted")
	}
	if _, err := ParseWorkloadParams([]string{"k=2", "k=3"}); err == nil {
		t.Error("duplicate key accepted")
	}
}
