package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call made by the benchmark into a layer of the
// program. Spans of one request share Req; Parent is the ID of the span
// that caused it (0 for a root). Times are nanoseconds since the trace
// epoch.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so untraced runs pay one nil check per call.
type tracer struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// add records a finished span and returns its ID (0 on a nil tracer).
func (t *tracer) add(req, parent int, name string, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Req: req, Name: name,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch)),
	})
	return id
}

// open starts a span now that children can name as their parent; end
// closes it.
func (t *tracer) open(req, parent int, name string) int {
	now := time.Now()
	return t.add(req, parent, name, now, now)
}

func (t *tracer) end(id int) {
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = int64(now.Sub(t.epoch))
}

// timed runs fn inside a span and returns the span's duration.
func (t *tracer) timed(req, parent int, name string, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	t.add(req, parent, name, start, end)
	return end.Sub(start)
}

// snapshot copies the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores every span as one JSON array.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	raw, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// selfTimes maps each span ID to its self time in nanoseconds: its
// duration minus the part of its interval that its children cover.
// Children may overlap each other (concurrent shard calls) and are
// clipped to the parent's interval, so overlapping time is subtracted
// once.
func selfTimes(spans []span) map[int]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]int64, len(spans))
	for _, s := range spans {
		out[s.ID] = (s.End - s.Start) - covered(s.Start, s.End, children[s.ID])
	}
	return out
}

// covered is the length of the union of the spans' intervals within
// [lo, hi].
func covered(lo, hi int64, spans []span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(spans))
	for _, s := range spans {
		a, b := max(s.Start, lo), min(s.End, hi)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total int64
	var curA, curB int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}
