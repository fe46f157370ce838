package telemetry

import (
	"encoding/json"
	"io"
	"os"
)

// Manifest is the provenance record written next to every report: what
// was run (spec, seed, worker count), what it cost (counters,
// phase and per-cell timings), and how each cell stopped. It is the
// record a content-addressable result store would key on (ROADMAP item
// 5): DeterministicJSON extracts the subset that is a pure function of
// the spec, while the full document adds the timing/scheduling
// provenance of this particular execution.
type Manifest struct {
	Tool    string `json:"tool"`
	Started string `json:"started,omitempty"`
	// Version is the CodeVersion of the producing binary. It is part of
	// the deterministic section: byte-identity across machines is only
	// claimed — and only cacheable — at one code version, so the fabric
	// smoke compares it along with the committed counts.
	Version string `json:"version,omitempty"`
	// StatusAddr is the resolved -status listen address (non-
	// deterministic provenance: ports differ per run), recorded so
	// tooling can reach a live run's endpoint without scraping stderr.
	StatusAddr string `json:"statusAddr,omitempty"`

	// Spec echoes the run's sweep.Spec (or the harness's own config);
	// MasterSeed inside it is the seed-derivation root. Adaptive holds
	// the controller parameters of an adaptive run, nil for fixed
	// sweeps. Both are `any` so this package imports only std.
	Spec     any `json:"spec,omitempty"`
	Adaptive any `json:"adaptive,omitempty"`

	Workers int `json:"workers,omitempty"`

	Snapshot      Snapshot     `json:"snapshot"`
	Phases        []Phase      `json:"phases,omitempty"`
	TraceMeasures []string     `json:"traceMeasures,omitempty"`
	Cells         []CellStatus `json:"cells"`

	// Fleet names every fabric worker that took part in the run — name,
	// resolved remote address, code version, last shipped snapshot, and
	// whether it was evicted (stale). Non-deterministic provenance, like
	// StatusAddr: which machines ran is scheduling, not spec.
	Fleet []WorkerSnapshot `json:"fleet,omitempty"`
}

// deterministicCell is CellStatus minus its wall-clock field.
type deterministicCell struct {
	Cell   int          `json:"cell"`
	Label  string       `json:"label"`
	Trials uint64       `json:"trials"`
	Stop   string       `json:"stop,omitempty"`
	Trace  []TracePoint `json:"trace,omitempty"`
}

// BuildManifest closes the recorder's current phase and assembles the
// manifest. spec and adaptive are echoed verbatim (either may be nil).
func (r *Recorder) BuildManifest(tool string, spec, adaptive any, workers int) Manifest {
	m := Manifest{Tool: tool, Version: CodeVersion(), Spec: spec, Adaptive: adaptive,
		Workers: workers}
	if r == nil {
		return m
	}
	r.Phase("")
	m.Started = r.start.UTC().Format("2006-01-02T15:04:05.000Z07:00")
	m.Snapshot = r.Snapshot()
	m.Cells = r.Cells()
	m.Fleet = r.FleetWorkers()
	r.mu.Lock()
	m.Phases = append([]Phase(nil), r.phases...)
	m.TraceMeasures = append([]string(nil), r.traceMeasures...)
	m.StatusAddr = r.statusAddr
	r.mu.Unlock()
	return m
}

// WriteJSON writes the manifest as indented JSON.
func (m Manifest) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}

// WriteFile writes the manifest to path (0644, truncating).
func (m Manifest) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := m.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// DeterministicJSON marshals the manifest subset that is a pure
// function of the spec and the code version — committed trial counts,
// injected-fault counts, stop reasons, cell labels, and convergence
// traces — excluding every timing and every scheduling-dependent
// counter (trials run, slots, cache traffic, fsyncs, status address).
// Two runs of the same spec at any -workers produce identical bytes;
// the determinism tests pin exactly this.
func (m Manifest) DeterministicJSON() ([]byte, error) {
	cells := make([]deterministicCell, len(m.Cells))
	for i, c := range m.Cells {
		cells[i] = deterministicCell{Cell: c.Cell, Label: c.Label, Trials: c.Trials, Stop: c.Stop, Trace: c.Trace}
	}
	return json.MarshalIndent(struct {
		Tool            string              `json:"tool"`
		Version         string              `json:"version,omitempty"`
		Spec            any                 `json:"spec,omitempty"`
		Adaptive        any                 `json:"adaptive,omitempty"`
		TrialsCommitted uint64              `json:"trialsCommitted"`
		FaultCrashes    uint64              `json:"faultCrashes,omitempty"`
		FaultSleeps     uint64              `json:"faultSleeps,omitempty"`
		FaultErasures   uint64              `json:"faultErasures,omitempty"`
		TraceMeasures   []string            `json:"traceMeasures,omitempty"`
		Cells           []deterministicCell `json:"cells"`
	}{m.Tool, m.Version, m.Spec, m.Adaptive, m.Snapshot.TrialsCommitted,
		m.Snapshot.FaultCrashes, m.Snapshot.FaultSleeps, m.Snapshot.FaultErasures,
		m.TraceMeasures, cells}, "", "  ")
}
