package sweep

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/radio"
)

// ParseTopology parses the CLI matrix syntax
//
//	kind:n1,n2,...[:key=value,...]
//
// into one Topology per size. Examples:
//
//	path:64,128,256
//	gnp:32,64:p=0.2,seed=7
//	rgg:64:r=0.3,seed=7
//	grid:8:cols=8
//	lollipop:6:tail=10
func ParseTopology(s string) ([]Topology, error) {
	parts := strings.Split(s, ":")
	if len(parts) < 2 || len(parts) > 3 {
		return nil, fmt.Errorf("sweep: topology %q: want kind:sizes[:opts]", s)
	}
	kind := strings.TrimSpace(parts[0])
	var sizes []int
	for _, tok := range strings.Split(parts[1], ",") {
		n, err := strconv.Atoi(strings.TrimSpace(tok))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("sweep: topology %q: bad size %q", s, tok)
		}
		sizes = append(sizes, n)
	}
	base := Topology{Kind: kind}
	if len(parts) == 3 {
		for _, kv := range strings.Split(parts[2], ",") {
			key, val, ok := strings.Cut(strings.TrimSpace(kv), "=")
			if !ok {
				return nil, fmt.Errorf("sweep: topology %q: bad option %q", s, kv)
			}
			switch key {
			case "p":
				p, err := strconv.ParseFloat(val, 64)
				if err != nil || math.IsNaN(p) || p < 0 || p > 1 {
					return nil, fmt.Errorf("sweep: topology %q: bad p %q", s, val)
				}
				base.P = p
			case "r":
				r, err := strconv.ParseFloat(val, 64)
				if err != nil || math.IsNaN(r) || math.IsInf(r, 0) || r <= 0 {
					return nil, fmt.Errorf("sweep: topology %q: bad r %q", s, val)
				}
				base.R = r
			case "seed":
				sd, err := strconv.ParseUint(val, 10, 64)
				if err != nil {
					return nil, fmt.Errorf("sweep: topology %q: bad seed %q", s, val)
				}
				base.Seed = sd
			case "cols", "tail":
				m, err := strconv.Atoi(val)
				if err != nil || m <= 0 {
					return nil, fmt.Errorf("sweep: topology %q: bad %s %q", s, key, val)
				}
				base.M = m
			default:
				return nil, fmt.Errorf("sweep: topology %q: unknown option %q (valid: p, r, seed, cols, tail)", s, key)
			}
		}
	}
	out := make([]Topology, len(sizes))
	for i, n := range sizes {
		t := base
		t.N = n
		out[i] = t
	}
	return out, nil
}

// ParseFault parses the CLI fault-axis syntax
//
//	kind:rate1,rate2,...[:w=window]
//
// into one fault.Spec per rate. Kind is crash, sleep, or loss; rates are
// per-(device, slot) probabilities in [0, 1]; the w= option (sleep only)
// sets the forced-idle window in slots. Examples:
//
//	crash:0.001
//	sleep:0.001,0.01:w=8
//	loss:0.05
func ParseFault(s string) ([]fault.Spec, error) {
	parts := strings.Split(s, ":")
	if len(parts) < 2 || len(parts) > 3 {
		return nil, fmt.Errorf("sweep: fault %q: want kind:rates[:w=window]", s)
	}
	kind := fault.Kind(strings.ToLower(strings.TrimSpace(parts[0])))
	var rates []float64
	for _, tok := range strings.Split(parts[1], ",") {
		r, err := strconv.ParseFloat(strings.TrimSpace(tok), 64)
		if err != nil {
			return nil, fmt.Errorf("sweep: fault %q: bad rate %q", s, tok)
		}
		rates = append(rates, r)
	}
	if len(rates) == 0 {
		return nil, fmt.Errorf("sweep: fault %q: no rates", s)
	}
	window := 0
	if len(parts) == 3 {
		key, val, ok := strings.Cut(strings.TrimSpace(parts[2]), "=")
		if !ok || key != "w" {
			return nil, fmt.Errorf("sweep: fault %q: bad option %q (valid: w)", s, parts[2])
		}
		w, err := strconv.Atoi(val)
		if err != nil || w <= 0 {
			return nil, fmt.Errorf("sweep: fault %q: bad window %q", s, val)
		}
		window = w
	}
	out := make([]fault.Spec, len(rates))
	for i, r := range rates {
		out[i] = fault.Spec{Kind: kind, Rate: r, Window: window}
		if err := out[i].Validate(); err != nil {
			return nil, fmt.Errorf("sweep: fault %q: %w", s, err)
		}
	}
	return out, nil
}

// modelNames are the accepted spellings, in listing order.
var modelNames = []string{"nocd", "cd", "cdstar", "local"}

// ParseModels parses a comma-separated model list (nocd, cd, cdstar,
// local; case-insensitive, paper spellings like "No-CD" and "CD*"
// accepted).
func ParseModels(s string) ([]radio.Model, error) {
	var out []radio.Model
	for _, tok := range strings.Split(s, ",") {
		switch strings.ToLower(strings.TrimSpace(tok)) {
		case "nocd", "no-cd":
			out = append(out, radio.NoCD)
		case "cd":
			out = append(out, radio.CD)
		case "cdstar", "cd*":
			out = append(out, radio.CDStar)
		case "local":
			out = append(out, radio.Local)
		case "":
		default:
			return nil, fmt.Errorf("sweep: unknown model %q (valid: %s)",
				tok, strings.Join(modelNames, ", "))
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("sweep: no models in %q", s)
	}
	return out, nil
}

// AlgorithmNames maps every core.Algorithm's String() name to its value,
// by probing the enum from zero until the first value without a real
// name. New algorithms therefore become CLI-reachable the moment they
// stringify, with no list to keep in sync.
func AlgorithmNames() map[string]core.Algorithm {
	named := map[string]core.Algorithm{}
	for i, name := range sortedAlgorithmNames() {
		named[name] = core.Algorithm(i)
	}
	return named
}

// sortedAlgorithmNames lists the algorithm names in enum order — the
// single probe loop AlgorithmNames derives from.
func sortedAlgorithmNames() []string {
	var names []string
	for a := core.Algorithm(0); ; a++ {
		name := a.String()
		if strings.HasPrefix(name, "Algorithm(") {
			break
		}
		names = append(names, name)
	}
	return names
}

// ParseAlgorithms parses a comma-separated algorithm list using the
// names reported by core.Algorithm.String.
func ParseAlgorithms(s string) ([]core.Algorithm, error) {
	named := AlgorithmNames()
	var out []core.Algorithm
	for _, tok := range strings.Split(s, ",") {
		tok = strings.ToLower(strings.TrimSpace(tok))
		if tok == "" {
			continue
		}
		a, ok := named[tok]
		if !ok {
			return nil, fmt.Errorf("sweep: unknown algorithm %q (valid: %s)",
				tok, strings.Join(sortedAlgorithmNames(), ", "))
		}
		out = append(out, a)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("sweep: no algorithms in %q", s)
	}
	return out, nil
}

// ParseWorkloadParams parses repeated CLI "key=value" workload-parameter
// assignments (values may be comma-separated grids) into the map
// Spec.WorkloadParams expects. Duplicate keys are rejected — a silent
// override would drop half of an intended grid.
func ParseWorkloadParams(kvs []string) (map[string]string, error) {
	if len(kvs) == 0 {
		return nil, nil
	}
	out := make(map[string]string, len(kvs))
	for _, kv := range kvs {
		key, val, ok := strings.Cut(strings.TrimSpace(kv), "=")
		key = strings.TrimSpace(key)
		if !ok || key == "" {
			return nil, fmt.Errorf("sweep: workload parameter %q: want key=value", kv)
		}
		if _, dup := out[key]; dup {
			return nil, fmt.Errorf("sweep: duplicate workload parameter %q", key)
		}
		out[key] = strings.TrimSpace(val)
	}
	return out, nil
}
