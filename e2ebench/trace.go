package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call across a layer boundary. Spans of one search
// share Search; Parent is the span that was open when this one started
// (0 for a search span).
type span struct {
	ID     int64         `json:"id"`
	Parent int64         `json:"parent"`
	Name   string        `json:"name"`
	Search int64         `json:"search"`
	Worker string        `json:"worker,omitempty"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// recorder keeps spans in memory until the run ends. While it is off,
// begin returns nil and nothing is recorded, so untraced searches pay
// only an atomic load per boundary.
type recorder struct {
	epoch  time.Time
	on     atomic.Bool
	next   atomic.Int64
	search atomic.Int64 // seed of the search in progress
	root   atomic.Int64 // its search span
	batch  atomic.Int64 // the coordinator-level batch span in progress

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// openSpan is a span that has started and not yet ended. A nil
// *openSpan is valid and records nothing.
type openSpan struct {
	r *recorder
	s span
}

func (r *recorder) begin(name, worker string, parent int64) *openSpan {
	if r == nil || !r.on.Load() {
		return nil
	}
	return &openSpan{r: r, s: span{
		ID: r.next.Add(1), Parent: parent, Name: name, Search: r.search.Load(),
		Worker: worker, Start: time.Since(r.epoch),
	}}
}

func (o *openSpan) id() int64 {
	if o == nil {
		return 0
	}
	return o.s.ID
}

func (o *openSpan) end() {
	if o == nil {
		return
	}
	o.s.End = time.Since(o.r.epoch)
	o.r.mu.Lock()
	o.r.spans = append(o.r.spans, o.s)
	o.r.mu.Unlock()
}

// snapshot returns the spans recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// scope tracks the innermost open span of one worker's serving
// goroutine, so that its tier calls and RPCs nest under its batch.
type scope struct{ cur atomic.Int64 }

// enter makes id the innermost span and returns the one it replaced.
func (sc *scope) enter(id int64) int64 {
	if sc == nil || id == 0 {
		return 0
	}
	return sc.cur.Swap(id)
}

func (sc *scope) leave(id, prev int64) {
	if sc != nil && id != 0 {
		sc.cur.Store(prev)
	}
}

// parent picks the span a new span nests under. A worker-side span
// nests under the worker's innermost open span, else under the
// coordinator-level batch in progress; with neither, it is an idle poll
// that blocks no search and nests under nothing. A coordinator-level
// span nests under the batch in progress, else under the search.
func (r *recorder) parent(sc *scope) int64 {
	if sc != nil {
		if id := sc.cur.Load(); id != 0 {
			return id
		}
		return r.batch.Load()
	}
	if id := r.batch.Load(); id != 0 {
		return id
	}
	return r.root.Load()
}

// selfTimes returns each span's duration minus the part of its interval
// covered by its children. Children from concurrent workers overlap, so
// the covered part is the length of the union of the children's
// intervals, clipped to the parent's.
func selfTimes(spans []span) map[int64]time.Duration {
	kids := make(map[int64][][2]time.Duration)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]time.Duration{s.Start, s.End})
		}
	}
	self := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - unionLen(kids[s.ID], s.Start, s.End)
	}
	return self
}

// unionLen is the length of the union of the intervals, clipped to
// [lo, hi].
func unionLen(iv [][2]time.Duration, lo, hi time.Duration) time.Duration {
	var c [][2]time.Duration
	for _, x := range iv {
		a, b := max(x[0], lo), min(x[1], hi)
		if a < b {
			c = append(c, [2]time.Duration{a, b})
		}
	}
	sort.Slice(c, func(i, j int) bool { return c[i][0] < c[j][0] })
	var total, curA, curB time.Duration
	open := false
	for _, x := range c {
		switch {
		case !open:
			curA, curB, open = x[0], x[1], true
		case x[0] <= curB:
			curB = max(curB, x[1])
		default:
			total += curB - curA
			curA, curB = x[0], x[1]
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// writeSpans writes the spans as JSON lines to path.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
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
