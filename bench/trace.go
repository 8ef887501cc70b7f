package main

import (
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded by the harness around
// the call (never inside the program). Times are nanoseconds since the
// tracer's epoch; Parent is 0 for a root span.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

// maxStoredSpans caps the spans one track keeps for -trace-out. Spans
// past the cap still feed the per-name aggregates the per-layer metrics
// are computed from; only their individual records are dropped (and
// counted), so a 40 M-packet router run cannot hold millions of records.
const maxStoredSpans = 1 << 18

// spanAgg is the per-name roll-up: how many spans, their summed
// duration, and their summed self time (duration minus the part their
// direct children cover).
type spanAgg struct {
	Count       int64
	Total, Self int64
}

// tracer owns span names and ids; each goroutine that records spans
// takes its own track so the hot path holds no lock.
type tracer struct {
	epoch  time.Time
	nextID atomic.Int32

	mu     sync.Mutex
	names  []string
	byName map[string]int
	tracks []*track
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), byName: make(map[string]int)}
}

// name interns a span name; resolve names during set-up, not per span.
// Like newTrack it takes a nil tracer, for which any id will do.
func (tr *tracer) name(s string) int {
	if tr == nil {
		return 0
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if id, ok := tr.byName[s]; ok {
		return id
	}
	tr.names = append(tr.names, s)
	tr.byName[s] = len(tr.names) - 1
	return len(tr.names) - 1
}

// newTrack returns a span recorder for one goroutine. A nil tracer
// yields a nil track, on which begin and end are no-ops: workloads call
// them unconditionally and the untraced run pays one nil check.
func (tr *tracer) newTrack() *track {
	if tr == nil {
		return nil
	}
	tk := &track{tr: tr}
	tr.mu.Lock()
	tr.tracks = append(tr.tracks, tk)
	tr.mu.Unlock()
	return tk
}

type openSpan struct {
	name         int
	id           int32
	start, child int64
}

type track struct {
	tr      *tracer
	stack   []openSpan
	agg     []spanAgg // indexed by name id
	spans   []span
	dropped int64
}

// begin opens a span named by an interned id under the track's
// innermost open span.
func (tk *track) begin(name int) {
	if tk == nil {
		return
	}
	tk.stack = append(tk.stack, openSpan{
		name: name, id: tk.tr.nextID.Add(1),
		start: int64(time.Since(tk.tr.epoch)),
	})
}

// end closes the innermost open span.
func (tk *track) end() {
	if tk == nil {
		return
	}
	now := int64(time.Since(tk.tr.epoch))
	top := tk.stack[len(tk.stack)-1]
	tk.stack = tk.stack[:len(tk.stack)-1]
	var parent int32
	if n := len(tk.stack); n > 0 {
		tk.stack[n-1].child += now - top.start
		parent = tk.stack[n-1].id
	}
	tk.add(top.name, top.id, parent, top.start, now, top.child)
}

// record stores an already-timed root span: phases the harness can only
// observe from another goroutine (scenario phase boundaries) enter the
// ledger this way.
func (tk *track) record(name int, start, end time.Time) {
	if tk == nil {
		return
	}
	tk.add(name, tk.tr.nextID.Add(1), 0,
		int64(start.Sub(tk.tr.epoch)), int64(end.Sub(tk.tr.epoch)), 0)
}

func (tk *track) add(name int, id, parent int32, start, end, child int64) {
	for len(tk.agg) <= name {
		tk.agg = append(tk.agg, spanAgg{})
	}
	a := &tk.agg[name]
	a.Count++
	a.Total += end - start
	a.Self += end - start - child
	if len(tk.spans) >= maxStoredSpans {
		tk.dropped++
		return
	}
	tk.spans = append(tk.spans, span{
		ID: id, Parent: parent, Name: tk.tr.names[name], Start: start, End: end,
	})
}

// totals merges every track's aggregates by span name.
func (tr *tracer) totals() map[string]spanAgg {
	out := make(map[string]spanAgg)
	if tr == nil {
		return out
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	for _, tk := range tr.tracks {
		for id, a := range tk.agg {
			if a.Count == 0 {
				continue
			}
			m := out[tr.names[id]]
			m.Count += a.Count
			m.Total += a.Total
			m.Self += a.Self
			out[tr.names[id]] = m
		}
	}
	return out
}

// estimatedOverhead is what tracing cost a run that cannot spare an
// untraced reference of the same length: the spans recorded times what
// a span costs on this machine, over the time the run was busy, plus one.
func (tr *tracer) estimatedOverhead(busy time.Duration) float64 {
	var spans int64
	for _, a := range tr.totals() {
		spans += a.Count
	}
	return 1 + float64(spans)*spanCostNS()/float64(busy)
}

// selfTimes computes per-name self time from stored spans: each span's
// duration minus the durations of its direct children. It is the
// offline check of what track.end accumulates online.
func selfTimes(spans []span) map[string]int64 {
	child := make(map[int32]int64, len(spans))
	for _, s := range spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string]int64)
	for _, s := range spans {
		out[s.Name] += s.End - s.Start - child[s.ID]
	}
	return out
}

// traceFile is the -trace-out document.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Dropped  int64  `json:"spans_dropped"`
	Spans    []span `json:"spans"`
}

// writeFile dumps every stored span as JSON.
func (tr *tracer) writeFile(path, workload string, seed int64) error {
	doc := traceFile{Workload: workload, Seed: seed, Spans: []span{}}
	tr.mu.Lock()
	for _, tk := range tr.tracks {
		doc.Spans = append(doc.Spans, tk.spans...)
		doc.Dropped += tk.dropped
	}
	tr.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(doc); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanCostNS measures what one begin/end pair costs on this machine.
func spanCostNS() float64 {
	tr := newTracer()
	tk := tr.newTrack()
	n := tr.name("calibrate")
	const reps = 200_000
	start := time.Now()
	for i := 0; i < reps; i++ {
		tk.begin(n)
		tk.end()
	}
	return float64(time.Since(start)) / reps
}
