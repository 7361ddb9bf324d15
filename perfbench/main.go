// Command perfbench is the repository's end-to-end benchmark. It runs the
// real mapping-service handler over loopback HTTP, configured with
// mamps-serve's shipped defaults, drives it with a seeded closed-loop
// request stream, checks every answer and prints one JSON line of metrics:
// the end-to-end metrics, or with --trace 1 the per-layer metrics of a
// traced replay. See README.md for the workloads and the metrics.
//
//	bash perfbench/run.sh --workload dse-sweep --seed 7 --seconds 20 --trace 0
//	bash perfbench/run.sh --workload all
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// workload is one request mix and how it is driven.
type workload struct {
	name    string
	clients int  // closed-loop clients
	fresh   bool // a fresh service per request
	// perSec is the number of requests generated per measured second,
	// about three times the rate the workload reaches here. A faster
	// program ends the loop early, when the stream runs out.
	perSec  int
	countN  int // requests in each count pass
	replayN int // measured requests the traced run replays
}

var workloads = []workload{
	{name: "flow-cold", clients: 1, fresh: true, perSec: 1000, countN: 24, replayN: 96},
	{name: "design-loop", clients: 2, perSec: 2000, countN: 64, replayN: 768},
	{name: "dse-sweep", clients: 1, perSec: 400, countN: 32, replayN: 128},
}

const (
	defaultSeed = 1
	setupRuns   = 5 // set-ups per run; setup_s is their median
)

// Paths relative to the repository root, where the benchmark runs.
var (
	outDir      = filepath.Join(".bench_build", "perfbench") // trace files
	digestsPath = filepath.Join("perfbench", "digests.json") // result digests of the default seed
)

type options struct {
	seed         int64
	seconds      int
	traced       bool
	writeDigests bool
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON line the benchmark ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "flow-cold, design-loop, dse-sweep, or all to run each in its own process")
	var o options
	flag.Int64Var(&o.seed, "seed", defaultSeed, "request-stream seed")
	flag.IntVar(&o.seconds, "seconds", 20, "measured seconds")
	trace := flag.Int("trace", 0, "1: report the per-layer metrics of a traced replay")
	flag.BoolVar(&o.writeDigests, "write-digests", false, "record this run's result digests instead of checking them")
	flag.Parse()
	o.traced = *trace == 1
	if *name == "all" {
		os.Exit(runAll(o, *trace))
	}
	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || o.seconds < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	res, err := run(context.Background(), *wl, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run performs one benchmark run of a workload.
func run(ctx context.Context, wl workload, o options) (*result, error) {
	// Set up several times and keep the last set-up for the measurement.
	var setups []float64
	var st stream
	var lb *loopback
	var chk *checker
	for i := 0; i < setupRuns; i++ {
		if lb != nil {
			if err := lb.close(); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		var err error
		if st, err = generate(wl.name, o.seed, wl.perSec*o.seconds); err != nil {
			return nil, err
		}
		if lb, err = newLoopback(); err != nil {
			return nil, err
		}
		chk = newChecker()
		if err := prime(lb, st.prime, chk, wl.fresh); err != nil {
			lb.close()
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}

	ls, err := measure(lb, wl, st.reqs, chk, time.Duration(o.seconds)*time.Second, o.traced)
	if cerr := lb.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}

	var problems []string
	chk.checkReferences(ctx, runtime.GOMAXPROCS(0))
	done := st.reqs[:ls.attempted]
	switch {
	case o.writeDigests:
		err = chk.writeDigests(digestsPath, wl.name, done)
	case o.seed == defaultSeed:
		err = chk.checkDigests(digestsPath, wl.name, done)
	}
	if err != nil {
		problems = append(problems, err.Error())
	}

	res := &result{Attempted: ls.attempted, Metrics: make(map[string]metric)}
	lat := ls.latenciesMS()
	p99, above := percentile(lat, 0.99)
	fmt.Fprintf(os.Stderr, "%s seed %d: %d requests, %d answered, %d above p99, %d distinct checked against the library, %.1f%% CPU steal\n",
		wl.name, o.seed, ls.attempted, len(lat), above, len(chk.order), ls.stealPct)
	if above < 10 {
		fmt.Fprintf(os.Stderr, "%s: warning: only %d samples above p99; run longer\n", wl.name, above)
	}
	if o.traced {
		pl, err := layerMetrics(ctx, wl, st, chk, ls, o)
		if err != nil {
			problems = append(problems, err.Error())
		}
		for k, v := range pl {
			res.Metrics[k] = v
		}
	} else {
		p50, _ := percentile(lat, 0.5)
		res.Metrics["latency_p50_ms"] = metric{p50, "ms"}
		res.Metrics["latency_p99_ms"] = metric{p99, "ms"}
		res.Metrics["throughput_rps"] = metric{float64(len(lat)) / ls.busy.Seconds(), "1/s"}
		res.Metrics["cpu_ms_per_req"] = metric{ls.cpu.Seconds() * 1000 / float64(max(len(lat), 1)), "ms"}
		res.Metrics["max_rss_mb"] = metric{ls.maxRSSMB, "MB"}
		setup, _ := percentile(setups, 0.5)
		res.Metrics["setup_s"] = metric{setup, "s"}
	}

	res.Failed = chk.failed
	for reason, n := range chk.reasons {
		fmt.Fprintf(os.Stderr, "%s: %d failed: %s\n", wl.name, n, reason)
	}
	if chk.staleReports > 0 {
		fmt.Fprintf(os.Stderr, "%s: %d answers match the library except for the deadlock reports of infeasible points\n",
			wl.name, chk.staleReports)
	}
	for _, p := range problems {
		fmt.Fprintf(os.Stderr, "%s: check failed: %s\n", wl.name, p)
	}
	fmt.Fprintf(os.Stderr, "%s: fail_ratio %.6f\n", wl.name, float64(res.Failed)/float64(max(res.Attempted, 1)))
	res.Correct = res.Failed == 0 && len(problems) == 0 && res.Attempted > 0
	return res, nil
}

// prime sends the untimed priming requests and checks their answers.
func prime(lb *loopback, reqs []request, chk *checker, fresh bool) error {
	var buf bytes.Buffer
	for _, r := range reqs {
		if fresh {
			lb.swap()
		}
		_, status, err := lb.send(r, &buf)
		if err != nil {
			return fmt.Errorf("priming: %w", err)
		}
		chk.observe(r, status, buf.Bytes())
	}
	return nil
}

// loopStats is what the measured loop observed.
type loopStats struct {
	attempted int
	samples   []sample
	busy      time.Duration // loop wall time, less fresh-service set-ups
	cpu       time.Duration // process CPU over the measured intervals
	maxRSSMB  float64       // median over rssWindow windows of their peak resident memory
	allocB    uint64
	allocN    uint64
	queueWait float64 // ms per job; traced runs only
	stealPct  float64 // share of host CPU time the hypervisor took, for the report
}

type sample struct {
	lat    time.Duration
	ok     bool
	cached bool
}

func (ls *loopStats) latenciesMS() []float64 {
	var out []float64
	for _, s := range ls.samples {
		if s.ok {
			out = append(out, float64(s.lat.Nanoseconds())/1e6)
		}
	}
	return out
}

// measure runs the closed loop: each client sends the stream's next
// request as soon as its previous answer is read, until the time is up.
// Answers are checked between requests, outside the timed intervals.
func measure(lb *loopback, wl workload, reqs []request, chk *checker, d time.Duration, traced bool) (loopStats, error) {
	var ls loopStats
	var qBefore, qAfter metricsSnapshot
	var err error
	if traced && !wl.fresh {
		if qBefore, err = lb.scrape(); err != nil {
			return ls, err
		}
	}
	qAfter = make(metricsSnapshot)
	debug.FreeOSMemory() // return the set-up's garbage to the kernel
	stopRSS := make(chan struct{})
	rssPeaks := make(chan []float64, 1)
	go func() { rssPeaks <- watchRSS(stopRSS) }()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	steal0, total0 := hostStealTicks()

	var next atomic.Int64
	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	var paused time.Duration
	for c := 0; c < wl.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			var local []sample
			var freshCPU, freshPaused time.Duration
			for time.Now().Before(deadline) {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					break
				}
				var c0 time.Duration
				if wl.fresh {
					t := time.Now()
					lb.swap()
					freshPaused += time.Since(t)
					c0 = cpuTime()
				}
				lat, status, err := lb.send(reqs[i], &buf)
				if wl.fresh {
					freshCPU += cpuTime() - c0
				}
				s := sample{lat: lat}
				if err == nil {
					s.cached = chk.observe(reqs[i], status, buf.Bytes())
					s.ok = status == 200
				}
				if traced && wl.fresh && err == nil {
					var m metricsSnapshot
					if m, err = lb.scrape(); err == nil {
						mu.Lock()
						qAfter.add(m)
						mu.Unlock()
					}
				}
				local = append(local, s)
				if err != nil {
					mu.Lock()
					firstErr = errors.Join(firstErr, err)
					mu.Unlock()
					break
				}
			}
			mu.Lock()
			ls.samples = append(ls.samples, local...)
			ls.cpu += freshCPU
			paused += freshPaused
			mu.Unlock()
		}()
	}
	wg.Wait()
	ls.busy = time.Since(start) - paused
	if steal1, total1 := hostStealTicks(); total1 > total0 {
		ls.stealPct = 100 * float64(steal1-steal0) / float64(total1-total0)
	}
	if !wl.fresh {
		ls.cpu = cpuTime() - cpu0
	}
	runtime.ReadMemStats(&ms1)
	close(stopRSS)
	ls.maxRSSMB, _ = percentile(<-rssPeaks, 0.5)
	ls.attempted = len(ls.samples)
	n := uint64(max(ls.attempted, 1))
	ls.allocB = (ms1.TotalAlloc - ms0.TotalAlloc) / n
	ls.allocN = (ms1.Mallocs - ms0.Mallocs) / n
	if firstErr != nil {
		return ls, firstErr
	}
	if ls.attempted == len(reqs) {
		fmt.Fprintf(os.Stderr, "%s: warning: the request stream ran out after %v\n", wl.name, ls.busy.Round(time.Millisecond))
	}
	if traced {
		if !wl.fresh {
			if qAfter, err = lb.scrape(); err != nil {
				return ls, err
			}
		}
		ls.queueWait = queueWaitMS(qBefore, qAfter)
	}
	return ls, nil
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// hostStealTicks reads the CPU time stolen by the hypervisor and the total
// CPU time from /proc/stat, in clock ticks; zeros where it is unreadable.
// Steal explains a slow run; it is reported, never subtracted.
func hostStealTicks() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		if i < 8 { // user … steal; guest time is already in user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// rssWindow is the length of the windows of the measured loop whose peak
// resident memory max_rss_mb is the median of. A single peak would hang
// on the rarest heavy request in the stream; the median window peak is
// the high-water mark the process keeps returning to.
const rssWindow = 2 * time.Second

// watchRSS records the peak resident memory of each rssWindow until stop
// is closed, restarting the kernel's peak count at every window. Where
// the count cannot be restarted, each window reports the peak so far.
func watchRSS(stop <-chan struct{}) []float64 {
	resetPeakRSS()
	t := time.NewTicker(rssWindow)
	defer t.Stop()
	var peaks []float64
	for {
		select {
		case <-stop:
			return append(peaks, peakRSSMB())
		case <-t.C:
			peaks = append(peaks, peakRSSMB())
			resetPeakRSS()
		}
	}
}

func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // unsupported: the peak runs from process start
}

// peakRSSMB is the peak resident memory since the last resetPeakRSS.
func peakRSSMB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(v, "kB")), 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// percentile returns the nearest-rank q-quantile of xs and the number of
// samples above it.
func percentile(xs []float64, q float64) (float64, int) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q*float64(len(s)))) - 1
	rank = max(0, min(rank, len(s)-1))
	return s[rank], len(s) - 1 - rank
}

// runAll runs every workload in its own process, so each peak-memory
// figure belongs to one workload, and prints every metric with its unit.
func runAll(o options, trace int) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	all := result{Correct: true, Metrics: make(map[string]metric)}
	for _, wl := range workloads {
		cmd := exec.Command(exe, "--workload", wl.name, "--seed", fmt.Sprint(o.seed),
			"--seconds", fmt.Sprint(o.seconds), "--trace", fmt.Sprint(trace))
		cmd.Stderr = os.Stderr
		stdout, err := cmd.Output()
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", wl.name, err)
			return 1
		}
		lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", wl.name, err)
			return 1
		}
		res.Metrics["fail_ratio"] = metric{float64(res.Failed) / float64(max(res.Attempted, 1)), "ratio"}
		names := make([]string, 0, len(res.Metrics))
		for k := range res.Metrics {
			names = append(names, k)
		}
		sort.Strings(names)
		fmt.Printf("%s (correct: %v, %d attempted, %d failed)\n", wl.name, res.Correct, res.Attempted, res.Failed)
		for _, k := range names {
			fmt.Printf("  %-30s %14.4f %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
			all.Metrics[wl.name+"."+k] = res.Metrics[k]
		}
		all.Correct = all.Correct && res.Correct
		all.Attempted += res.Attempted
		all.Failed += res.Failed
	}
	line, _ := json.Marshal(all)
	fmt.Println(string(line))
	if !all.Correct {
		return 1
	}
	return 0
}
