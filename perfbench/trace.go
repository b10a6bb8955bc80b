package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one recorded interval. Start and End are nanoseconds since the
// tracer's epoch; Parent is 0 for a root span; Req groups the spans of
// one client request (0 outside requests). Program marks stage times
// the program reported itself (problem.PrepareStats) rather than times
// the benchmark measured around a call: their placement inside the
// parent is reconstructed, not observed.
type span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent,omitempty"`
	Req     int64  `json:"req,omitempty"`
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Self    int64  `json:"self_ns"`
	Program bool   `json:"program,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per boundary.
type tracer struct {
	epoch time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// open is a span that has started and not yet ended.
type open struct {
	t      *tracer
	id     int64
	parent int64
	req    int64
	name   string
	start  time.Time
}

// begin starts a span; its id is usable as a parent at once.
func (t *tracer) begin(name string, parent, req int64) open {
	if t == nil {
		return open{}
	}
	return open{t: t, id: t.ids.Add(1), parent: parent, req: req, name: name, start: time.Now()}
}

// end records the span and returns its duration.
func (o open) end() time.Duration {
	if o.t == nil {
		return 0
	}
	now := time.Now()
	o.t.add(span{ID: o.id, Parent: o.parent, Req: o.req, Name: o.name,
		Start: o.start.Sub(o.t.epoch).Nanoseconds(), End: now.Sub(o.t.epoch).Nanoseconds()})
	return now.Sub(o.start)
}

// program records a child span whose duration the program reported;
// start is where it is placed inside the parent.
func (t *tracer) program(name string, parent int64, start time.Time, d time.Duration) {
	if t == nil {
		return
	}
	s := start.Sub(t.epoch).Nanoseconds()
	t.add(span{ID: t.ids.Add(1), Parent: parent, Name: name, Start: s, End: s + d.Nanoseconds(), Program: true})
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// finish returns the spans ordered by start, with self times filled in.
func (t *tracer) finish() []span {
	out := t.snapshot()
	fillSelf(out)
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// fillSelf sets each span's self time: its duration minus the part of
// its interval that the union of its children covers.
func fillSelf(spans []span) {
	kids := map[int64][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	for i := range spans {
		s := &spans[i]
		s.Self = s.dur() - covered(kids[s.ID], s.Start, s.End)
	}
}

// covered is the length of the union of ivs clipped to [lo, hi].
func covered(ivs [][2]int64, lo, hi int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total, cur int64 = 0, lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// durationsMS returns the durations in ms of the spans named name.
func durationsMS(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.dur())/1e6)
		}
	}
	return out
}

// totalNS sums the durations of the spans named name.
func totalNS(spans []span, name string) float64 {
	var t float64
	for _, s := range spans {
		if s.Name == name {
			t += float64(s.dur())
		}
	}
	return t
}

// spanSummary aggregates spans by name for the self-time table.
type spanSummary struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
	Program bool    `json:"program,omitempty"`
}

func summarize(spans []span) []spanSummary {
	idx := map[string]int{}
	var out []spanSummary
	for _, s := range spans {
		i, ok := idx[s.Name]
		if !ok {
			i = len(out)
			idx[s.Name] = i
			out = append(out, spanSummary{Name: s.Name, Program: s.Program})
		}
		out[i].Count++
		out[i].TotalMS += float64(s.dur()) / 1e6
		out[i].SelfMS += float64(s.Self) / 1e6
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfMS > out[j].SelfMS })
	return out
}

func printSummary(w io.Writer, sums []spanSummary) {
	fmt.Fprintf(w, "%-28s %8s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, s := range sums {
		name := s.Name
		if s.Program {
			name += " (program)"
		}
		fmt.Fprintf(w, "%-28s %8d %12.1f %12.1f\n", name, s.Count, s.TotalMS, s.SelfMS)
	}
}

// traceFile is the JSON written at exit in traced mode.
type traceFile struct {
	Host    host          `json:"host"`
	Summary []spanSummary `json:"summary"`
	Spans   []span        `json:"spans"`
}

func writeTrace(path string, tf traceFile) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(tf); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}
