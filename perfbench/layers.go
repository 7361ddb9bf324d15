package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// layerMetrics computes the per-layer metrics of a traced run: counts from
// two deterministic count passes, self times from the traced replay, and
// the hit latency, queue wait and allocations of the measured loop.
func layerMetrics(ctx context.Context, wl workload, st stream, chk *checker, ls loopStats, o options) (map[string]metric, error) {
	out := make(map[string]metric)
	var problems []error

	counts, err := countPass(wl, st)
	if err != nil {
		return out, err
	}
	again, err := countPass(wl, st)
	if err != nil {
		return out, err
	}
	for k, v := range counts {
		unit := "count"
		if k == "cache.hit_ratio" {
			unit = "ratio"
		}
		out[k] = metric{v, unit}
		if again[k] != v {
			problems = append(problems, fmt.Errorf("%s differs between two count passes of one seed: %g vs %g", k, v, again[k]))
		}
	}

	var hits []float64
	for _, s := range ls.samples {
		if s.ok && s.cached {
			hits = append(hits, float64(s.lat.Nanoseconds())/1e6)
		}
	}
	hitMS, _ := percentile(hits, 0.5)
	out["service.hit_ms"] = metric{hitMS, "ms"}
	out["service.queue_wait_ms"] = metric{ls.queueWait, "ms"}
	out["alloc.bytes_per_req"] = metric{float64(ls.allocB), "B"}
	out["alloc.objects_per_req"] = metric{float64(ls.allocN), "count"}
	out["cache.stale_reports_per_req"] = metric{float64(chk.staleReports) / float64(max(ls.attempted, 1)), "count"}

	n := min(wl.replayN, ls.attempted)
	rec, overhead, err := tracedReplay(ctx, wl, st, chk, n)
	if err != nil {
		problems = append(problems, err)
	}
	layers := rec.selfTimes()
	printLayerTable(os.Stderr, wl.name, layers, n)
	for _, name := range []string{"decode", "resolve", "arch", "mapping", "statespace", "platgen", "sim", "expected", "dse", "encode"} {
		var self float64
		if st := layers[name]; st != nil {
			self = st.self.Seconds() * 1000 / float64(n)
		}
		out[name+".self_ms"] = metric{self, "ms"}
	}
	out["statespace.states_per_s"] = metric{rate(layers["statespace"]), "1/s"}
	out["sim.mcycles_per_s"] = metric{rate(layers["sim"]) / 1e6, "Mcycles/s"}
	out["trace.overhead_pct"] = metric{overhead, "%"}

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		problems = append(problems, err)
	} else {
		path := filepath.Join(outDir, fmt.Sprintf("%s-seed%d.trace.json", wl.name, o.seed))
		if err := rec.writeChromeFile(path); err != nil {
			problems = append(problems, err)
		} else {
			fmt.Fprintf(os.Stderr, "%s: trace written to %s\n", wl.name, path)
		}
	}
	return out, errors.Join(problems...)
}

// rate is a layer's work count per second of its span time.
func rate(st *layerStats) float64 {
	if st == nil || st.total <= 0 {
		return 0
	}
	return float64(st.n) / st.total.Seconds()
}

// countPass replays the stream's first countN requests one at a time on
// a freshly primed service and returns the per-request counter deltas
// scraped from /metrics. Nothing in it is timed.
func countPass(wl workload, st stream) (map[string]float64, error) {
	lb, err := newLoopback()
	if err != nil {
		return nil, err
	}
	defer lb.close()
	if err := prime(lb, st.prime, newChecker(), wl.fresh); err != nil {
		return nil, err
	}
	reqs := st.reqs[:min(wl.countN, len(st.reqs))]
	before, after := make(metricsSnapshot), make(metricsSnapshot)
	if !wl.fresh {
		if before, err = lb.scrape(); err != nil {
			return nil, err
		}
	}
	var buf bytes.Buffer
	for _, r := range reqs {
		if wl.fresh {
			lb.swap()
		}
		_, status, err := lb.send(r, &buf)
		if err != nil {
			return nil, err
		}
		if status != 200 {
			return nil, fmt.Errorf("count pass: status %d", status)
		}
		if wl.fresh {
			m, err := lb.scrape()
			if err != nil {
				return nil, err
			}
			after.add(m)
		}
	}
	if !wl.fresh {
		if after, err = lb.scrape(); err != nil {
			return nil, err
		}
	}
	return perRequestCounts(before, after, len(reqs)), nil
}

// tracedReplay replays the priming requests and the first n measured
// requests on two replayers in lockstep, one untraced and one traced,
// alternating which goes first. Every replica must equal the HTTP answer
// to its request. The overhead is the traced median replay time over the
// untraced one, in percent.
func tracedReplay(ctx context.Context, wl workload, st stream, chk *checker, n int) (*recorder, float64, error) {
	plain, traced := newReplayer(wl.fresh), newReplayer(wl.fresh)
	for _, r := range st.prime {
		for _, rp := range []*replayer{plain, traced} {
			if _, err := rp.replay(ctx, -1, r); err != nil {
				return newRecorder(), 0, fmt.Errorf("replaying a priming request: %w", err)
			}
		}
	}
	traced.rec = newRecorder()
	var tPlain, tTraced []float64
	mismatches := 0
	for i, r := range st.reqs[:n] {
		pair := []*replayer{plain, traced}
		if i%2 == 1 {
			pair[0], pair[1] = traced, plain
		}
		want := chk.canonOf(r.body)
		for _, rp := range pair {
			start := time.Now()
			got, err := rp.replay(ctx, i, r)
			ms := float64(time.Since(start).Nanoseconds()) / 1e6
			if err != nil || !bytes.Equal(got, want) {
				mismatches++
			}
			if rp == traced {
				tTraced = append(tTraced, ms)
			} else {
				tPlain = append(tPlain, ms)
			}
		}
	}
	p50Plain, _ := percentile(tPlain, 0.5)
	p50Traced, _ := percentile(tTraced, 0.5)
	overhead := 0.0
	if p50Plain > 0 {
		overhead = 100 * (p50Traced - p50Plain) / p50Plain
	}
	if mismatches > 0 {
		return traced.rec, overhead, fmt.Errorf("%d replicas differ from their HTTP answers", mismatches)
	}
	return traced.rec, overhead, nil
}
