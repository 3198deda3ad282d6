package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// The tracer records spans from outside the program: every span is opened and
// closed by harness code around a call into a layer's public function. Spans
// stay in memory and are written out once, when the run ends.

// span is one timed interval. Parent is the id of the span that caused it
// (-1 for a root); spans of one op share Op (-1 for set-up work).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

type tracer struct {
	epoch time.Time
	mu    sync.Mutex // serve-mix has two client goroutines
	spans []span
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

const noSpan = -1

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent, op int) int {
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: now})
	t.mu.Unlock()
	return id
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id].End = now
	d := t.spans[id].dur()
	t.mu.Unlock()
	return d
}

// add records a span whose boundaries were observed rather than bracketed
// (serve-mix derives a job's queue and run intervals from the server's own
// public timestamps).
func (t *tracer) add(name string, parent, op int, start, end time.Time) {
	t.mu.Lock()
	t.spans = append(t.spans, span{
		ID: len(t.spans), Parent: parent, Op: op, Name: name,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch)),
	})
	t.mu.Unlock()
}

// count returns how many spans have been recorded so far.
func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// nameStat aggregates the spans sharing one name.
type nameStat struct {
	name  string
	count int
	total time.Duration // summed span durations
	self  time.Duration // total minus the time covered by child spans
	durs  []time.Duration
}

// selfTimes folds spans from index `from` on into per-name totals. A span's
// self time is its duration minus what its children cover; children of one
// parent never overlap here (each parent is driven by one goroutine), so
// that is the plain sum of child durations.
func selfTimes(spans []span, from int) map[string]*nameStat {
	child := make(map[int]time.Duration)
	for _, s := range spans[from:] {
		if s.Parent != noSpan {
			child[s.Parent] += s.dur()
		}
	}
	out := make(map[string]*nameStat)
	for _, s := range spans[from:] {
		st := out[s.Name]
		if st == nil {
			st = &nameStat{name: s.Name}
			out[s.Name] = st
		}
		st.count++
		st.total += s.dur()
		st.durs = append(st.durs, s.dur())
		if self := s.dur() - child[s.ID]; self > 0 {
			st.self += self
		}
	}
	return out
}

// bySelf orders name stats by descending self time (name breaks ties, so the
// table is stable).
func bySelf(m map[string]*nameStat) []*nameStat {
	out := make([]*nameStat, 0, len(m))
	for _, st := range m {
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].self != out[j].self {
			return out[i].self > out[j].self
		}
		return out[i].name < out[j].name
	})
	return out
}

// writeSpans writes every span as one JSON object per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
