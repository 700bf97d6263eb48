package main

import (
	"sort"
	"sync"
	"time"
)

// Span is one timed call across a layer boundary, recorded by the
// benchmark around its own calls into the program. Spans of one request
// share Op; Parent is the ID of the span that caused this one (0 for a
// root).
type Span struct {
	ID, Parent, Op int
	Name           string
	Start, End     time.Duration // offsets from the recorder's epoch
}

// Recorder keeps spans in memory until the run ends. A nil *Recorder
// records nothing, so untraced phases pay one nil check per boundary.
type Recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []Span
}

func newRecorder() *Recorder { return &Recorder{epoch: time.Now()} }

// Begin opens a span and returns its ID (0 on a nil recorder).
func (r *Recorder) Begin(op, parent int, name string) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Op: op, Name: name, Start: now})
	return id
}

// End closes span id.
func (r *Recorder) End(id int) {
	if r == nil || id == 0 {
		return
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// AddChild records a span whose interval the caller already knows — the
// server-side share of a request, placed at the end of the round trip
// that carried it.
func (r *Recorder) AddChild(parent int, name string, end, dur time.Duration) {
	if r == nil || parent == 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	p := r.spans[parent-1]
	start := end - dur
	if start < p.Start {
		start = p.Start
	}
	r.spans = append(r.spans, Span{ID: len(r.spans) + 1, Parent: parent, Op: p.Op, Name: name, Start: start, End: end})
}

// Spans returns a copy of everything recorded.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// selfTimes returns every span's self time: its duration minus the part
// of its interval covered by its direct children (overlapping children
// count once; grandchildren are already inside their parent).
func selfTimes(spans []Span) map[int]time.Duration {
	children := make(map[int][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] = s.End - s.Start - covered(s.Start, s.End, children[s.ID])
	}
	return self
}

// covered is the length of the union of the kids' intervals clipped to
// [lo, hi].
func covered(lo, hi time.Duration, kids []Span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		a, b := k.Start, k.End
		if a < lo {
			a = lo
		}
		if b > hi {
			b = hi
		}
		if b > a {
			iv = append(iv, [2]time.Duration{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total time.Duration
	curA, curB := time.Duration(-1), time.Duration(-1)
	for _, x := range iv {
		if x[0] > curB {
			if curB > curA {
				total += curB - curA
			}
			curA, curB = x[0], x[1]
		} else if x[1] > curB {
			curB = x[1]
		}
	}
	if curB > curA {
		total += curB - curA
	}
	return total
}

// spanEnd returns the recorded end of span id.
func (r *Recorder) spanEnd(id int) time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.spans[id-1].End
}
