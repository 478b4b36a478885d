package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call. Spans of one op share Op, the id of the op's
// root span. The engine has no tracing of its own, so the traced replay
// issues each layer's public call itself, back to back: a span's
// children are the calls its own call makes inside the engine, timed
// separately on the same inputs, and its self time is its duration minus
// theirs.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
	Work   int64  `json:"work,omitempty"` // units of work the call did (rows, calls)
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends, plus gauges: counts
// and sizes read at layer boundaries.
type tracer struct {
	t0     time.Time
	spans  []span
	gauges map[string]float64
}

func newTracer() *tracer { return &tracer{t0: time.Now(), gauges: map[string]float64{}} }

// root opens an op's root span and returns its id; close it with end.
func (t *tracer) root(name string) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Op: id, Name: name, Start: t.now()})
	return id
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// end closes span id.
func (t *tracer) end(id int) { t.spans[id-1].End = t.now() }

// call runs fn as a span named name under parent and returns the span's
// id. fn's work count is recorded on the span.
func (t *tracer) call(parent int, name string, fn func() (int64, error)) (int, error) {
	id := len(t.spans) + 1
	p := t.spans[parent-1]
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: p.Op, Name: name})
	start := t.now()
	work, err := fn()
	end := t.now()
	s := &t.spans[id-1]
	s.Start, s.End, s.Work = start, end, work
	return id, err
}

// timed records a span for a call that times itself: fn returns the
// duration of the call proper, so the span leaves out the answer check
// the workload runs after it.
func (t *tracer) timed(parent int, name string, fn func() (time.Duration, error)) (int, time.Duration, error) {
	id := len(t.spans) + 1
	p := t.spans[parent-1]
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: p.Op, Name: name})
	start := t.now()
	d, err := fn()
	s := &t.spans[id-1]
	s.Start, s.End = start, start+int64(d)
	return id, d, err
}

// adopt makes span child a logical child of parent: parent's call made
// child's call inside the engine.
func (t *tracer) adopt(parent int, children ...int) {
	for _, c := range children {
		if c > 0 {
			t.spans[c-1].Parent = parent
		}
	}
}

// adoptSince makes every span opened after span from whose parent is
// root a child of parent.
func (t *tracer) adoptSince(parent, from, root int) {
	for i := from; i < len(t.spans); i++ {
		if t.spans[i].Parent == root && t.spans[i].ID != parent {
			t.spans[i].Parent = parent
		}
	}
}

// mark is the id of the latest span, for adoptSince.
func (t *tracer) mark() int { return len(t.spans) }

func (t *tracer) gauge(name string, v float64) { t.gauges[name] = v }

// add accumulates v into a gauge.
func (t *tracer) add(name string, v float64) { t.gauges[name] += v }

// named returns the spans called name.
func (t *tracer) named(name string) []*span {
	var out []*span
	for i := range t.spans {
		if t.spans[i].Name == name {
			out = append(out, &t.spans[i])
		}
	}
	return out
}

// medianDur is the median duration of the spans called name.
func (t *tracer) medianDur(name string) time.Duration {
	var ds []time.Duration
	for _, s := range t.named(name) {
		ds = append(ds, s.dur())
	}
	return percentile(ds, 50)
}

// medianSelf is the median self time of the spans called name: each
// span's duration minus its children's, floored at zero.
func (t *tracer) medianSelf(name string) time.Duration {
	children := map[int]time.Duration{}
	for i := range t.spans {
		if p := t.spans[i].Parent; p != 0 {
			children[p] += t.spans[i].dur()
		}
	}
	var ds []time.Duration
	for _, s := range t.named(name) {
		ds = append(ds, max(s.dur()-children[s.ID], 0))
	}
	return percentile(ds, 50)
}

// medianGap is the median, over ops holding spans of both names, of how
// much longer the op's span called a took than its span called b,
// floored at zero.
func (t *tracer) medianGap(a, b string) time.Duration {
	bOf := map[int]time.Duration{}
	for _, s := range t.named(b) {
		bOf[s.Op] = s.dur()
	}
	var ds []time.Duration
	for _, s := range t.named(a) {
		if d, ok := bOf[s.Op]; ok {
			ds = append(ds, max(s.dur()-d, 0))
		}
	}
	return percentile(ds, 50)
}

// perWork is the total duration of the spans called name divided by
// their total work.
func (t *tracer) perWork(name string) time.Duration {
	var d time.Duration
	var w int64
	for _, s := range t.named(name) {
		d += s.dur()
		w += s.Work
	}
	if w == 0 {
		return 0
	}
	return d / time.Duration(w)
}

// meanWork is the mean work count of the spans called name.
func (t *tracer) meanWork(name string) float64 {
	ss := t.named(name)
	if len(ss) == 0 {
		return 0
	}
	var w int64
	for _, s := range ss {
		w += s.Work
	}
	return float64(w) / float64(len(ss))
}

// dump writes the spans, one JSON object per line, sorted by start.
func (t *tracer) dump(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	ordered := append([]span(nil), t.spans...)
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].Start < ordered[j].Start })
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range ordered {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}
