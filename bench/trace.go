package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// public function it calls.
type span struct {
	Name   string `json:"name"`
	Run    string `json:"run"`           // phase iteration: setup-N, round-N or tour
	Req    int    `json:"req,omitempty"` // daemon request number, 0 outside requests
	Parent int    `json:"parent"`        // index of the enclosing span, -1 at top level
	Start  int64  `json:"start_ns"`      // since the tracer started
	End    int64  `json:"end_ns"`
}

// counter is a count taken at a layer boundary during one run.
type counter struct {
	Name  string  `json:"name"`
	Run   string  `json:"run"`
	Value float64 `json:"value"`
}

// tracer keeps spans and counters in memory until the run writes them out.
// A nil *tracer records nothing, so untraced runs pay one nil check per call.
type tracer struct {
	mu       sync.Mutex
	t0       time.Time
	run      string
	spans    []span
	counters []counter
	cost     time.Duration // time spent recording, for trace.overhead_frac
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// setRun names the phase iteration that later spans and counters belong to.
func (t *tracer) setRun(run string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.run = run
	t.mu.Unlock()
}

// begin opens a span under parent (-1 for none) and returns its id.
func (t *tracer) begin(parent int, name string) int { return t.beginReq(parent, name, 0) }

// beginReq is begin for a span of daemon request req.
func (t *tracer) beginReq(parent int, name string, req int) int {
	if t == nil {
		return -1
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Run: t.run, Req: req, Parent: parent, Start: now.Sub(t.t0).Nanoseconds()})
	t.cost += time.Since(now)
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) { t.endAs(id, "") }

// endAs closes span id and, when name is not empty, renames it: the daemon
// knows whether a request was cold only once its stream has ended.
func (t *tracer) endAs(id int, name string) {
	if t == nil {
		return
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now.Sub(t.t0).Nanoseconds()
	if name != "" {
		t.spans[id].Name = name
	}
	t.cost += time.Since(now)
}

// do records f as span name under parent.
func (t *tracer) do(parent int, name string, f func()) {
	id := t.begin(parent, name)
	f()
	t.end(id)
}

// count adds v to counter name in the current run.
func (t *tracer) count(name string, v float64) {
	if t == nil {
		return
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.counters = append(t.counters, counter{Name: name, Run: t.run, Value: v})
	t.cost += time.Since(now)
}

// spent is the time spent recording so far.
func (t *tracer) spent() time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.cost
}

// has reports whether any span is named name.
func (t *tracer) has(name string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if s.Name == name {
			return true
		}
	}
	return false
}

// write saves the spans and counters with the run's context.
func (t *tracer) write(path string, rc runContext) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(struct {
		runContext
		Spans    []span    `json:"spans"`
		Counters []counter `json:"counters"`
	}{rc, t.spans, t.counters})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfTimes returns each span's duration minus the part of its interval
// that its children cover; overlapping children count once.
func selfTimes(spans []span) []int64 {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		var iv [][2]int64
		for _, k := range kids[i] {
			if a, b := max(spans[k].Start, s.Start), min(spans[k].End, s.End); a < b {
				iv = append(iv, [2]int64{a, b})
			}
		}
		sort.Slice(iv, func(x, y int) bool { return iv[x][0] < iv[y][0] })
		var covered, reach int64 = 0, s.Start
		for _, v := range iv {
			if v[0] > reach {
				reach = v[0]
			}
			if v[1] > reach {
				covered += v[1] - reach
				reach = v[1]
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}
