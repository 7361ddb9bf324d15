package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"sync"

	"mamps/internal/appmodel"
	"mamps/internal/arch"
	"mamps/internal/dse"
	"mamps/internal/flow"
	"mamps/internal/mjpeg"
	"mamps/internal/modelio"
)

// Answer checking. Every answer is checked: non-200 answers fail; flow
// answers must satisfy the paper's Figure 6 invariant; exact repeats must
// return result fields byte-identical to the first answer; and every
// distinct request is checked once, after the measured loop, against a
// cache-free sequential library call.

// answer is the first answer received for one distinct request.
type answer struct {
	req request
	// head is the raw body up to the "cached" field: repeats served from
	// the cache match it byte for byte.
	head []byte
	// canon is the body's result fields in canonical form: timings, the
	// cache flag and deadlock reports dropped, re-encoded.
	canon []byte
	// reports are the deadlock reports of infeasible sweep points.
	reports string
	// count is the number of answers received for the request.
	count int
}

// checker validates answers as they arrive. It is safe for concurrent use.
type checker struct {
	mu      sync.Mutex
	byBody  map[string]*answer
	order   []*answer // distinct requests in first-answer order
	failed  int
	reasons map[string]int // failure reason -> count, for the report
	// staleReports counts answers whose result fields match the library
	// but whose deadlock reports do not (see canonicalDSE).
	staleReports int
}

func newChecker() *checker {
	return &checker{byBody: make(map[string]*answer), reasons: make(map[string]int)}
}

func (c *checker) fail(n int, reason string) {
	c.failed += n
	c.reasons[reason] += n
}

// observe checks one answer and reports whether the service served it
// from its cache.
func (c *checker) observe(r request, status int, body []byte) (cached bool) {
	head, cached, ok := splitCached(body)
	c.mu.Lock()
	defer c.mu.Unlock()
	if status != 200 {
		c.fail(1, fmt.Sprintf("status %d", status))
		return false
	}
	if !ok {
		c.fail(1, "answer has no cached field")
		return false
	}
	if a := c.byBody[r.body]; a != nil {
		a.count++
		if bytes.Equal(head, a.head) {
			return cached
		}
		// A recomputed repeat differs in its step timings only.
		if canon, _, err := canonical(r.path, body); err != nil || !bytes.Equal(canon, a.canon) {
			c.fail(1, "repeat differs from first answer")
		}
		return cached
	}
	canon, reports, err := canonical(r.path, body)
	if err != nil {
		c.fail(1, err.Error())
		return cached
	}
	a := &answer{req: r, head: append([]byte(nil), head...), canon: canon, reports: reports, count: 1}
	c.byBody[r.body] = a
	c.order = append(c.order, a)
	return cached
}

// splitCached splits an encoded response at its "cached" field, which
// the service writes after every result field.
func splitCached(body []byte) (head []byte, cached, ok bool) {
	i := bytes.LastIndex(body, []byte(`"cached": `))
	if i < 0 {
		return nil, false, false
	}
	return body[:i], bytes.HasPrefix(body[i+len(`"cached": `):], []byte("true")), true
}

// canonical decodes a response body, checks its invariants and returns
// its result fields in canonical form, and its deadlock reports.
func canonical(path string, body []byte) ([]byte, string, error) {
	switch path {
	case "/v1/flow":
		var resp modelio.FlowResponseJSON
		if err := modelio.DecodeJSON(bytes.NewReader(body), &resp); err != nil {
			return nil, "", err
		}
		canon, err := canonicalFlow(resp)
		return canon, "", err
	case "/v1/dse":
		var resp modelio.DSEResponseJSON
		if err := modelio.DecodeJSON(bytes.NewReader(body), &resp); err != nil {
			return nil, "", err
		}
		return canonicalDSE(resp)
	}
	return nil, "", fmt.Errorf("no checker for %s", path)
}

// canonicalFlow checks the Figure 6 invariant — the platform and the
// expected-case analysis both reach the guaranteed bound — and drops the
// step timings and cache fields.
func canonicalFlow(resp modelio.FlowResponseJSON) ([]byte, error) {
	wc := resp.WorstCase.ItersPerCycle
	if !(wc > 0) || resp.Measured.ItersPerCycle < wc || resp.Expected.ItersPerCycle < wc {
		return nil, fmt.Errorf("figure 6 invariant violated: worstCase %g, measured %g, expected %g",
			wc, resp.Measured.ItersPerCycle, resp.Expected.ItersPerCycle)
	}
	resp.Steps, resp.Cached, resp.ElapsedMS = nil, false, 0
	return json.Marshal(resp)
}

// canonicalDSE drops the cache fields and splits each infeasible point's
// error into its message, kept, and its deadlock report, returned apart.
// The service's analysis cache keys an analysis by graph and schedules,
// not by which tiles run them, so a deadlocked point can carry the report
// of an equal-keyed point bound to other tiles: the report's tile names
// then differ from the library's and depend on which point the sweep
// analyzed first. Those reports are counted, not failed.
func canonicalDSE(resp modelio.DSEResponseJSON) ([]byte, string, error) {
	if len(resp.Points) == 0 {
		return nil, "", fmt.Errorf("dse answer has no points")
	}
	resp.Cached, resp.ElapsedMS = false, 0
	var reports strings.Builder
	points := append([]modelio.DSEPointJSON(nil), resp.Points...)
	for i := range points {
		if msg, report, ok := strings.Cut(points[i].Error, "\n"); ok {
			points[i].Error = msg
			reports.WriteString(report)
		}
	}
	resp.Points = points
	canon, err := json.Marshal(resp)
	return canon, reports.String(), err
}

// checkReferences recomputes every distinct request with a cache-free
// sequential library call and fails every answer of a request whose
// result differs. The calls are independent, so workers run them in
// parallel.
func (c *checker) checkReferences(ctx context.Context, workers int) {
	work := make(chan *answer)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for a := range work {
				ref, reports, err := reference(ctx, a.req)
				c.mu.Lock()
				switch {
				case err != nil:
					c.fail(a.count, "reference call failed: "+err.Error())
				case !bytes.Equal(ref, a.canon):
					c.fail(a.count, "answer differs from the reference call")
				case reports != a.reports:
					c.staleReports += a.count
				}
				c.mu.Unlock()
			}
		}()
	}
	for _, a := range c.order {
		work <- a
	}
	close(work)
	wg.Wait()
}

// reference computes a request's canonical result with the library alone:
// flow.RunContext or dse.SweepContext with one worker, no cache and no
// warm-start cache.
func reference(ctx context.Context, r request) ([]byte, string, error) {
	switch r.path {
	case "/v1/flow":
		var req modelio.FlowRequestJSON
		if err := modelio.DecodeJSON(strings.NewReader(r.body), &req); err != nil {
			return nil, "", err
		}
		app, iterations, err := resolveMJPEG(req.Workload)
		if err != nil {
			return nil, "", err
		}
		ic, err := parseInterconnect(req.Interconnect)
		if err != nil {
			return nil, "", err
		}
		cfg := flow.Config{
			App: app, Tiles: req.Tiles, Interconnect: ic,
			Iterations: iterations, RefActor: mjpegRefActor, Scenario: "service",
			AnalyzeWorkers: 1,
		}
		cfg.MapOptions.UseCA = req.UseCA
		res, err := flow.RunContext(ctx, cfg)
		if err != nil {
			return nil, "", err
		}
		canon, err := canonicalFlow(modelio.NewFlowResponseJSON(res))
		return canon, "", err
	case "/v1/dse":
		var req modelio.DSERequestJSON
		if err := modelio.DecodeJSON(strings.NewReader(r.body), &req); err != nil {
			return nil, "", err
		}
		app, err := modelio.ReadApp([]byte(req.AppXML))
		if err != nil {
			return nil, "", err
		}
		cfg, err := dseConfig(req)
		if err != nil {
			return nil, "", err
		}
		cfg.Workers, cfg.AnalyzeWorkers = 1, 1
		points, err := dse.SweepContext(ctx, app, cfg)
		if err != nil {
			return nil, "", err
		}
		return canonicalDSE(modelio.NewDSEResponseJSON(app.Name, points))
	}
	return nil, "", fmt.Errorf("no reference for %s", r.path)
}

// mjpegRefActor is the actor whose completions define an MJPEG iteration.
const mjpegRefActor = "Raster"

// resolveMJPEG builds the built-in MJPEG application of a request, as the
// service does, and returns it with the iteration count of its full input.
func resolveMJPEG(wl *modelio.WorkloadJSON) (*appmodel.App, int, error) {
	if wl == nil || wl.Name != "mjpeg" {
		return nil, 0, fmt.Errorf("request names no mjpeg workload")
	}
	kind := -1
	for k := mjpeg.SeqSynthetic; k <= mjpeg.SeqBars; k++ {
		if k.String() == wl.Sequence {
			kind = int(k)
		}
	}
	if kind < 0 {
		return nil, 0, fmt.Errorf("unknown sequence %q", wl.Sequence)
	}
	stream, _, err := mjpeg.EncodeSequence(mjpeg.SequenceKind(kind), wl.Width, wl.Height, wl.Frames, wl.Quality, mjpeg.Sampling420)
	if err != nil {
		return nil, 0, err
	}
	app, actors, err := mjpeg.BuildApp(stream)
	if err != nil {
		return nil, 0, err
	}
	si := actors.VLD.Info()
	return app, si.MCUsPerFrame() * si.Frames, nil
}

func parseInterconnect(name string) (arch.InterconnectKind, error) {
	switch name {
	case "fsl":
		return arch.FSL, nil
	case "noc":
		return arch.NoC, nil
	}
	return 0, fmt.Errorf("unknown interconnect %q", name)
}

// dseConfig translates a sweep request the way the service does, without
// its cache and telemetry.
func dseConfig(req modelio.DSERequestJSON) (dse.Config, error) {
	cfg := dse.Config{
		MinTiles:         req.MinTiles,
		MaxTiles:         req.MaxTiles,
		WithCA:           req.WithCA,
		UseSolver:        req.Solver,
		SolverNodeBudget: req.SolverNodeBudget,
	}
	for _, name := range req.Interconnects {
		ic, err := parseInterconnect(name)
		if err != nil {
			return cfg, err
		}
		cfg.Interconnects = append(cfg.Interconnects, ic)
	}
	return cfg, nil
}

// digest is the short content digest of a canonical result.
func digest(canon []byte) string {
	sum := sha256.Sum256(canon)
	return hex.EncodeToString(sum[:8])
}

// digestCount is how many leading measured requests have committed
// digests for the default seed.
const digestCount = 16

// streamDigests returns the digests of the answers to the first
// digestCount measured requests.
func (c *checker) streamDigests(reqs []request) []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []string
	for _, r := range reqs[:min(digestCount, len(reqs))] {
		if a := c.byBody[r.body]; a != nil {
			out = append(out, digest(a.canon))
		}
	}
	return out
}

// checkDigests compares the stream's digests with the committed ones and
// fails each answer that differs.
func (c *checker) checkDigests(path, workload string, reqs []request) error {
	want, err := readDigests(path)
	if err != nil {
		return err
	}
	got := c.streamDigests(reqs)
	if len(want[workload]) != digestCount || len(got) != digestCount {
		return fmt.Errorf("%s: want %d committed and measured digests, have %d and %d",
			workload, digestCount, len(want[workload]), len(got))
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, d := range got {
		if d != want[workload][i] {
			c.fail(1, fmt.Sprintf("request %d differs from its committed digest", i))
		}
	}
	return nil
}

func readDigests(path string) (map[string][]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading digests: %w", err)
	}
	var m map[string][]string
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return m, nil
}

// writeDigests records this workload's digests in the digest file,
// keeping the other workloads' entries.
func (c *checker) writeDigests(path, workload string, reqs []request) error {
	m, err := readDigests(path)
	if err != nil {
		m = make(map[string][]string)
	}
	m[workload] = c.streamDigests(reqs)
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// canonOf returns the canonical result of the first answer to a request.
func (c *checker) canonOf(body string) []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	if a := c.byBody[body]; a != nil {
		return a.canon
	}
	return nil
}
