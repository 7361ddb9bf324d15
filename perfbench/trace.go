package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// The span recorder of the traced run. Spans are kept in memory and
// written at the end as Chrome trace_event JSON, which Perfetto opens.

// span is one timed call into a layer.
type span struct {
	name       string
	req        int // request ID: position in the replayed stream
	id, parent int // parent −1: a request's root span
	start, end time.Duration
	// n is the span's work count: states explored for "statespace",
	// simulated cycles for "sim".
	n int64
}

// recorder collects spans. A nil recorder records nothing, so the same
// replay code runs traced and untraced. It is safe for concurrent use:
// sweep points run on several goroutines.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its ID (−1 on a nil recorder).
func (r *recorder) begin(req int, name string, parent int) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{name: name, req: req, id: len(r.spans), parent: parent, start: now})
	return len(r.spans) - 1
}

// end closes a span, recording its work count.
func (r *recorder) end(id int, n int64) {
	if r == nil {
		return
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id].end = now
	r.spans[id].n = n
}

// layerStats aggregates one layer's spans.
type layerStats struct {
	spans int
	self  time.Duration // span time not covered by child spans
	total time.Duration
	n     int64
}

// selfTimes returns each layer's aggregate, keyed by span name. A span's
// self time is its duration minus the part of it that its children cover;
// children of one span may overlap when they run on several goroutines.
func (r *recorder) selfTimes() map[string]*layerStats {
	children := make(map[int][]span)
	for _, s := range r.spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	out := make(map[string]*layerStats)
	for _, s := range r.spans {
		st := out[s.name]
		if st == nil {
			st = &layerStats{}
			out[s.name] = st
		}
		st.spans++
		st.total += s.end - s.start
		st.self += s.end - s.start - covered(s, children[s.id])
		st.n += s.n
	}
	return out
}

// covered is the length of the union of the children's intervals.
func covered(parent span, kids []span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].start < kids[j].start })
	var sum time.Duration
	cur := parent.start
	for _, k := range kids {
		lo, hi := max(k.start, cur), min(k.end, parent.end)
		if hi > lo {
			sum += hi - lo
			cur = hi
		}
	}
	return sum
}

// writeChromeFile writes the spans as Chrome trace_event JSON. Spans are
// laid on tracks so that every track nests properly: a span goes on the
// first track whose innermost open span contains it.
func (r *recorder) writeChromeFile(path string) error {
	spans := append([]span(nil), r.spans...)
	sort.SliceStable(spans, func(i, j int) bool {
		if spans[i].start != spans[j].start {
			return spans[i].start < spans[j].start
		}
		return spans[i].end > spans[j].end
	})
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	var tracks [][]span // open-span stack per track
	events := make([]event, 0, len(spans))
	for _, s := range spans {
		tid := -1
		for t := range tracks {
			st := tracks[t]
			for len(st) > 0 && st[len(st)-1].end <= s.start {
				st = st[:len(st)-1]
			}
			tracks[t] = st
			if tid < 0 && (len(st) == 0 || st[len(st)-1].end >= s.end) {
				tid = t
			}
		}
		if tid < 0 {
			tid = len(tracks)
			tracks = append(tracks, nil)
		}
		tracks[tid] = append(tracks[tid], s)
		events = append(events, event{
			Name: s.name, Ph: "X",
			Ts:  float64(s.start.Nanoseconds()) / 1e3,
			Dur: float64((s.end - s.start).Nanoseconds()) / 1e3,
			Pid: 1, Tid: tid + 1,
			Args: map[string]any{"request": s.req, "span": s.id, "parent": s.parent, "n": s.n},
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// printLayerTable writes the per-layer self-time table of a traced run.
func printLayerTable(w io.Writer, workload string, layers map[string]*layerStats, requests int) {
	var names []string
	var all time.Duration
	for name, st := range layers {
		names = append(names, name)
		all += st.self
	}
	sort.Slice(names, func(i, j int) bool { return layers[names[i]].self > layers[names[j]].self })
	fmt.Fprintf(w, "%s: layer self times over %d replayed requests\n", workload, requests)
	fmt.Fprintf(w, "  %-12s %8s %12s %8s\n", "layer", "spans", "self ms/req", "share")
	for _, name := range names {
		st := layers[name]
		fmt.Fprintf(w, "  %-12s %8d %12.4f %7.1f%%\n", name, st.spans,
			st.self.Seconds()*1000/float64(requests), 100*st.self.Seconds()/all.Seconds())
	}
}
