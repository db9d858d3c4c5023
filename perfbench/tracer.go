package main

import (
	"encoding/json"
	"os"
	"runtime/metrics"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans live in memory until the run
// ends and are written out once.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index into the span list, -1 for a root
	Pass   int    `json:"pass"`
}

// tracer records spans and per-pass counters for the traced run. Its
// methods are safe for concurrent use: the serve clients record from two
// goroutines.
type tracer struct {
	mu     sync.Mutex
	t0     time.Time
	pass   int
	spans  []span
	counts map[string]float64
}

func newTracer() *tracer { return &tracer{t0: time.Now(), counts: map[string]float64{}} }

// startPass opens a new pass id and clears the counters.
func (t *tracer) startPass(pass int) {
	t.mu.Lock()
	t.pass = pass
	t.counts = map[string]float64{}
	t.mu.Unlock()
}

func (t *tracer) begin(name string, parent int) int {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: now, Parent: parent, Pass: t.pass})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// add accumulates a counter of the current pass.
func (t *tracer) add(name string, v float64) {
	t.mu.Lock()
	t.counts[name] += v
	t.mu.Unlock()
}

// call runs fn inside a span. When allocMetric is set, the bytes the call
// allocates are added to that counter in MB.
func (t *tracer) call(name string, parent int, allocMetric string, fn func() error) error {
	var before uint64
	if allocMetric != "" {
		before = heapAllocBytes()
	}
	id := t.begin(name, parent)
	err := fn()
	t.end(id)
	if allocMetric != "" {
		t.add(allocMetric, float64(heapAllocBytes()-before)/1e6)
	}
	return err
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

// heapAllocBytes is the cumulative heap allocation of the process. It is
// read through runtime/metrics, which does not stop the world.
func heapAllocBytes() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// layerMetrics derives one traced pass's timings from its spans: the self
// time of every layer span (its duration minus the part its children
// cover) summed by name as "<name>_s", plus the pass's counters.
func (t *tracer) layerMetrics(pass int) map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[string]float64{}
	for k, v := range t.counts {
		out[k] = v
	}
	child := map[int]int64{}
	for _, s := range t.spans {
		if s.Pass == pass && s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	for i, s := range t.spans {
		if s.Pass != pass || !strings.Contains(s.Name, ".") {
			continue
		}
		out[s.Name+"_s"] += float64(s.End-s.Start-child[i]) / 1e9
	}
	return out
}

// write stores every span as one JSON document.
func (t *tracer) write(path string, manifest map[string]any) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(map[string]any{"manifest": manifest, "spans": t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
