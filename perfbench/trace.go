package main

import (
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer's public function. Spans that belong
// to the same workload operation (a model campaign, a daemon job, a mutant
// pool) share Op, the ID of that operation's root span.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // 0 for a root span
	Op     int     `json:"op"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"` // wall seconds since the tracer started
	End    float64 `json:"end_s"`
	Dur    float64 `json:"dur_s"` // on the benchmark clock (see since)
	begun  stamp
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how the untraced runs call the same code.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID. A parent of 0 makes it a root: the
// span starts a new operation and op is ignored.
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return 0
	}
	at := now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	if parent == 0 {
		op = id
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name,
		Start: at.wall.Sub(t.t0).Seconds(), begun: at})
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	s := &t.spans[id-1]
	s.End = time.Since(t.t0).Seconds()
	s.Dur = since(s.begun).Seconds()
	t.mu.Unlock()
}

// record adds a finished child span of parent whose bounds the program
// reported itself (a daemon job's own timestamps) rather than the benchmark
// timing a call. Its Dur is wall time: steal cannot be taken out afterwards.
func (t *tracer) record(name string, parent int, from, to time.Time) {
	if t == nil || parent == 0 || to.Before(from) {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: t.spans[parent-1].Op, Name: name,
		Start: from.Sub(t.t0).Seconds(), End: to.Sub(t.t0).Seconds(), Dur: to.Sub(from).Seconds()})
}

// op returns the operation a span belongs to.
func (t *tracer) op(id int) int {
	if t == nil || id == 0 {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id-1].Op
}

// layerOf maps a span name ("fuzz.Engine.Run") to its layer ("fuzz").
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// covered returns the length of the union of the intervals [a, b).
func covered(iv [][2]float64) float64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	total, end := 0.0, 0.0
	for i, x := range iv {
		if i == 0 || x[0] > end {
			total += x[1] - x[0]
			end = x[1]
		} else if x[1] > end {
			total += x[1] - end
			end = x[1]
		}
	}
	return total
}

// selfTimes returns each layer's self time in wall seconds: the length of
// its spans minus the part of each span's interval that its child spans
// cover. Children may overlap (a daemon job's run and the client's status
// polls), so the part is their union, not their sum.
func (t *tracer) selfTimes() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][][2]float64)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]float64{s.Start, s.End})
		}
	}
	out := make(map[string]float64)
	for _, s := range t.spans {
		out[layerOf(s.Name)] += s.End - s.Start - covered(children[s.ID])
	}
	return out
}

// layerTime returns the wall seconds during which a layer span (any span
// not named bench.*) was open, over the operations that started in
// [from, to) (seconds since the tracer started). Time the benchmark spends
// between calls into the layers is left out.
func (t *tracer) layerTime(from, to float64) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	inWindow := make(map[int]bool)
	var iv [][2]float64
	for _, s := range t.spans {
		if s.Parent == 0 {
			inWindow[s.ID] = s.Start >= from && s.Start < to
		} else if inWindow[s.Op] && layerOf(s.Name) != "bench" {
			iv = append(iv, [2]float64{s.Start, s.End})
		}
	}
	return covered(iv)
}

func (t *tracer) now() float64 {
	if t == nil {
		return 0
	}
	return time.Since(t.t0).Seconds()
}

// snapshot returns the spans ordered by start time.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := append([]span(nil), t.spans...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}
