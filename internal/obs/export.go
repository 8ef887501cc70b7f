package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
)

// Recorder accumulates interval snapshots into a time series. Drive it
// from the simulated clock (netsim's EveryBackground) so point spacing
// is simulated time, not wall time.
type Recorder struct {
	mu     sync.Mutex
	points []Snapshot
}

// NewRecorder creates an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Record appends one snapshot.
func (r *Recorder) Record(s Snapshot) {
	r.mu.Lock()
	r.points = append(r.points, s)
	r.mu.Unlock()
}

// Points returns the recorded series, oldest first.
func (r *Recorder) Points() []Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Snapshot(nil), r.points...)
}

// Export is the on-disk observability artifact: the final cumulative
// snapshot, the interval time series and the retained event log. It is
// what `discs-sim -metrics` writes and `discs-report -metrics`
// renders.
type Export struct {
	GeneratedBy   string     `json:"generated_by"`
	IntervalNanos int64      `json:"interval_ns,omitempty"`
	Final         Snapshot   `json:"final"`
	Points        []Snapshot `json:"points,omitempty"`
	Events        []Event    `json:"events,omitempty"`
	EventsDropped uint64     `json:"events_dropped,omitempty"`
}

// NewExport assembles an Export from a registry, an optional recorder
// and the registry's tracer (nil-safe on both).
func NewExport(generatedBy string, reg *Registry, rec *Recorder, intervalNanos int64) *Export {
	e := &Export{GeneratedBy: generatedBy, IntervalNanos: intervalNanos, Final: reg.Snapshot()}
	if rec != nil {
		e.Points = rec.Points()
	}
	tr := reg.Tracer()
	e.Events = tr.Events()
	e.EventsDropped = tr.dropped()
	return e
}

// writeJSON writes the export as indented JSON.
func (e *Export) writeJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(e)
}

// WriteFile writes the export to path.
func (e *Export) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := e.writeJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readExport parses an Export written by writeJSON/WriteFile.
func readExport(r io.Reader) (*Export, error) {
	var e Export
	if err := json.NewDecoder(r).Decode(&e); err != nil {
		return nil, fmt.Errorf("obs: parsing export: %w", err)
	}
	return &e, nil
}

// ReadExportFile reads and parses the export at path.
func ReadExportFile(path string) (*Export, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return readExport(f)
}
