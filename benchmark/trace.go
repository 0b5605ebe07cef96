package main

import (
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

// span is one timed interval at a layer boundary. Spans of one request
// share Request; Parent is the span that caused this one (0 = root).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Request int    `json:"request"`
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
}

// maxSpans bounds the in-memory trace (≈3 MiB of spans, ≈6 MiB as JSON).
// High-rate workloads end their traced window when it fills.
const maxSpans = 1 << 16

// tracer keeps spans in a preallocated slice and writes them out when the
// workload ends. A nil *tracer records nothing, so the untraced windows
// run the same driver code.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, maxSpans)}
}

// begin opens a span and returns its id (0 when not recording or full).
func (t *tracer) begin(parent, request int, name string) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) == cap(t.spans) {
		return 0
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Request: request, Name: name, Start: now})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// add records a span whose interval was measured elsewhere (an aggregate
// of many short calls, or an interval shared by batch members).
func (t *tracer) add(parent, request int, name string, start time.Time, d time.Duration) {
	if id := t.begin(parent, request, name); id != 0 {
		t.mu.Lock()
		t.spans[id-1].Start = int64(start.Sub(t.t0))
		t.spans[id-1].End = t.spans[id-1].Start + int64(d)
		t.mu.Unlock()
	}
}

// durations returns the length in ns of every span with the given name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}

func (t *tracer) write(dir, workload string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "trace-"+workload+".json"))
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(t.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerRow is one line of the self-time table.
type layerRow struct {
	layer    string
	selfNS   float64
	count    int
	medianNS float64
}

const (
	spanService = "service.request" // the public Service call, as the user sees it
	spanReplay  = "replay"          // the same request replayed through the layers
)

// layerTable attributes request time to layers. The program carries no
// spans of its own, so the Service call is opaque: its children are
// measured on the sibling replay root, whose descendants are the calls
// into each layer. A layer's self time is its spans' duration minus their
// children's; the service layer's self time is what the public call took
// beyond its replay; the replay root's own glue is the harness's and is
// left out. Shares are of the total service.request time.
func (t *tracer) layerTable() []layerRow {
	child := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		child[s.Parent] += s.End - s.Start
	}
	self := map[string][]float64{}
	var serviceNS, replayNS float64
	var nService int
	for _, s := range t.spans {
		d := float64(s.End - s.Start)
		switch s.Name {
		case spanService:
			serviceNS += d
			nService++
		case spanReplay:
			replayNS += d
		default:
			layer, _, _ := strings.Cut(s.Name, ".")
			self[layer] = append(self[layer], d-float64(child[s.ID]))
		}
	}
	rows := []layerRow{{layer: "service", selfNS: max(serviceNS-replayNS, 0), count: nService}}
	if nService > 0 {
		rows[0].medianNS = rows[0].selfNS / float64(nService)
	}
	for layer, ds := range self {
		var sum float64
		for _, d := range ds {
			sum += d
		}
		rows = append(rows, layerRow{layer: layer, selfNS: sum, count: len(ds), medianNS: quantile(ds, 0.5)})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].selfNS > rows[j].selfNS })
	return rows
}

func printLayerTable(w io.Writer, rows []layerRow) {
	var total float64
	for _, r := range rows {
		total += r.selfNS
	}
	fmt.Fprintf(w, "  %-10s %8s %8s %12s\n", "layer", "share", "count", "median_us")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-10s %7.1f%% %8d %12.1f\n", r.layer, 100*r.selfNS/max(total, 1), r.count, r.medianNS/1e3)
	}
}
