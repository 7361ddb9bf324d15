package main

import (
	"bufio"
	"bytes"
	"fmt"
	"strconv"
	"strings"
)

// metricsSnapshot is one scrape of the service's /metrics: series
// (name plus label set) to value.
type metricsSnapshot map[string]float64

func (lb *loopback) scrape() (metricsSnapshot, error) {
	body, err := lb.get("/metrics")
	if err != nil {
		return nil, err
	}
	return parseMetrics(body)
}

// parseMetrics reads the Prometheus text exposition.
func parseMetrics(body []byte) (metricsSnapshot, error) {
	m := make(metricsSnapshot)
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("malformed metrics line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("malformed metrics line %q: %w", line, err)
		}
		m[line[:i]] = v
	}
	return m, sc.Err()
}

// add accumulates another snapshot's counters, for summing fresh services.
func (m metricsSnapshot) add(o metricsSnapshot) {
	for k, v := range o {
		m[k] += v
	}
}

// delta returns after − before for one series.
func delta(before, after metricsSnapshot, series string) float64 {
	return after[series] - before[series]
}

// countSeries are the per-layer counters the deterministic count pass
// reports per request. They come from deterministic kernels, so two
// passes over the same requests must agree exactly.
var countSeries = []struct{ metric, series string }{
	{"cache.evictions_per_req", "mamps_cache_evictions_total"},
	{"warm.exact_per_req", "mamps_warmstart_exact_hits_total"},
	{"warm.scaled_per_req", "mamps_warmstart_scaled_hits_total"},
	{"warm.hint_per_req", "mamps_warmstart_hint_hits_total"},
	{"warm.miss_per_req", "mamps_warmstart_misses_total"},
	{"warm.bailout_per_req", "mamps_warmstart_bailouts_total"},
	{"statespace.analyses_per_req", "mamps_statespace_analyses_total"},
	{"statespace.states_per_req", "mamps_statespace_states_total"},
	{"statespace.parallel_per_req", "mamps_statespace_parallel_analyses_total"},
	{"sim.steps_per_req", "mamps_sim_steps_total"},
	{"solver.nodes_per_req", "mamps_solver_nodes_expanded_total"},
	{"solver.verifications_per_req", "mamps_solver_verifications_total"},
}

// perRequestCounts turns a count pass's counter deltas into per-request
// metrics. The cache hit ratio counts lookups that joined an in-flight
// computation as hits: the split between the two depends on scheduling,
// their sum does not.
func perRequestCounts(before, after metricsSnapshot, n int) map[string]float64 {
	out := make(map[string]float64)
	for _, s := range countSeries {
		out[s.metric] = delta(before, after, s.series) / float64(n)
	}
	hits := delta(before, after, "mamps_cache_hits_total") + delta(before, after, "mamps_cache_dedup_total")
	misses := delta(before, after, "mamps_cache_misses_total")
	out["cache.hit_ratio"] = 0
	if hits+misses > 0 {
		out["cache.hit_ratio"] = hits / (hits + misses)
	}
	return out
}

// queueWaitMS is the mean time jobs waited for a worker between two
// scrapes.
func queueWaitMS(before, after metricsSnapshot) float64 {
	n := delta(before, after, "mamps_job_queue_wait_seconds_count")
	if n == 0 {
		return 0
	}
	return 1000 * delta(before, after, "mamps_job_queue_wait_seconds_sum") / n
}
