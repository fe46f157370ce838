package sweep

import (
	"math"
	"testing"
)

// FuzzParseTopology feeds arbitrary strings to the -topo parser, a
// trust boundary for command-line input. It must never panic, and every
// topology it accepts must be buildable in principle: a positive size,
// a finite edge probability in [0, 1] and a finite radius >= 0 (zero
// means the generator's default). The committed seed corpus is under
// testdata/fuzz/FuzzParseTopology.
func FuzzParseTopology(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		ts, err := ParseTopology(s)
		if err != nil {
			return
		}
		if len(ts) == 0 {
			t.Fatalf("ParseTopology(%q) accepted no topologies", s)
		}
		for _, tp := range ts {
			if tp.N <= 0 {
				t.Fatalf("ParseTopology(%q): size %d", s, tp.N)
			}
			if math.IsNaN(tp.P) || tp.P < 0 || tp.P > 1 {
				t.Fatalf("ParseTopology(%q): p %v", s, tp.P)
			}
			if math.IsNaN(tp.R) || math.IsInf(tp.R, 0) || tp.R < 0 {
				t.Fatalf("ParseTopology(%q): r %v", s, tp.R)
			}
		}
	})
}

// FuzzParseFault feeds arbitrary strings to the -fault parser. It must
// never panic, and every spec it accepts must pass fault.Spec.Validate,
// the check the engine applies before injecting. The committed seed
// corpus is under testdata/fuzz/FuzzParseFault.
func FuzzParseFault(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		specs, err := ParseFault(s)
		if err != nil {
			return
		}
		if len(specs) == 0 {
			t.Fatalf("ParseFault(%q) accepted no specs", s)
		}
		for _, sp := range specs {
			if verr := sp.Validate(); verr != nil {
				t.Fatalf("ParseFault(%q) accepted %+v: %v", s, sp, verr)
			}
		}
	})
}
