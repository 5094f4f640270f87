package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around a
// public function of that layer. Times are nanoseconds since the tracer
// started; Parent is the index+1 of the enclosing span (0 for none).
type span struct {
	Name     string `json:"name"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
	Parent   int    `json:"parent"`
	Workload string `json:"workload"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced code paths call it unconditionally. It is safe for
// concurrent use.
type tracer struct {
	workload string
	t0       time.Time
	mu       sync.Mutex
	spans    []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now(), spans: make([]span, 0, 1<<14)}
}

// begin opens a span named "<layer>.<function>" under parent (0 for a
// root) and returns its id.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: now, Parent: parent, Workload: t.workload})
	id := len(t.spans)
	t.mu.Unlock()
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// call runs fn inside a span.
func (t *tracer) call(name string, parent int, fn func()) {
	id := t.begin(name, parent)
	fn()
	t.end(id)
}

// durations returns the duration in milliseconds of every span called
// name.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// total returns the summed duration of every span called name, in ms.
func (t *tracer) total(name string) float64 { return sum(t.durations(name)) }

// selfTimes returns each layer's self time in milliseconds: its spans'
// durations minus the parts covered by their child spans. The layer is the
// span name up to the first dot.
func (t *tracer) selfTimes() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent > 0 {
			child[s.Parent-1] += s.End - s.Start
		}
	}
	out := map[string]float64{}
	for i, s := range t.spans {
		layer, _, _ := strings.Cut(s.Name, ".")
		out[layer] += float64(s.End-s.Start-child[i]) / 1e6
	}
	return out
}

// write stores the spans as JSON lines in dir/name (dir "" writes
// nothing).
func (t *tracer) write(dir, name string) error {
	if t == nil || dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return fmt.Errorf("spans: %w", err)
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	return nil
}

// logSelfTimes prints each layer's self time and share of the traced time.
func (t *tracer) logSelfTimes(log io.Writer) {
	self := t.selfTimes()
	all := 0.0
	for _, v := range self {
		all += v
	}
	layers := make([]string, 0, len(self))
	for l := range self {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	for _, layer := range layers {
		fmt.Fprintf(log, "# self time %-10s %12.3f ms  %5.1f%%\n", layer, self[layer], 100*self[layer]/all)
	}
}
