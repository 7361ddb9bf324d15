package main

import (
	"bytes"
	"context"
	"fmt"
	"strings"

	"mamps/internal/arch"
	"mamps/internal/dse"
	"mamps/internal/flow"
	"mamps/internal/mapping"
	"mamps/internal/modelio"
	"mamps/internal/obs"
	"mamps/internal/platgen"
	"mamps/internal/sdf"
	"mamps/internal/service/cache"
	"mamps/internal/sim"
	"mamps/internal/statespace"
	"mamps/internal/statespace/warm"
)

// The traced run replays requests by calling each layer's public entry
// point, in the order the service job calls them, with the caches the
// service keeps: one content cache for job results and analyses, and the
// warm-start cache in front of the flow's analyses. Spans go around each
// call; the analysis hook puts one around every state-space exploration.

type analyzeFunc = func(*sdf.Graph, statespace.Options) (statespace.Result, error)

type replayer struct {
	rec   *recorder // nil: untraced
	fresh bool      // new caches per request, as flow-cold's fresh services
	cache *cache.Cache
	warm  *warm.Cache

	explorer *obs.ExplorerStats
	simStats *obs.SimStats
	solver   *obs.SolverStats

	req    int // request being replayed
	parent int // span the analysis hook records under
}

func newReplayer(fresh bool) *replayer {
	rp := &replayer{
		fresh:    fresh,
		explorer: obs.NewExplorerStats(nil),
		simStats: obs.NewSimStats(nil),
		solver:   obs.NewSolverStats(nil),
	}
	rp.reset()
	return rp
}

func (rp *replayer) reset() {
	cfg := serviceConfig()
	rp.cache = cache.New(cfg.CacheCapacity)
	rp.warm = warm.New(256, obs.NewWarmStats(nil))
}

// replay answers one request and returns its canonical result fields.
func (rp *replayer) replay(ctx context.Context, id int, r request) ([]byte, error) {
	if rp.fresh {
		rp.reset()
	}
	rp.req = id
	root := rp.rec.begin(id, "request", -1)
	defer rp.rec.end(root, 0)
	// Job results are cached under the request content, as the service
	// does with its content key.
	key := "job:" + r.body
	switch r.path {
	case "/v1/flow":
		var req modelio.FlowRequestJSON
		sp := rp.rec.begin(id, "decode", root)
		err := modelio.DecodeJSON(strings.NewReader(r.body), &req)
		rp.rec.end(sp, 0)
		if err != nil {
			return nil, err
		}
		v, hit, err := rp.cache.Do(ctx, key, func() (any, error) { return rp.flow(ctx, root, req) })
		if err != nil {
			return nil, err
		}
		resp := v.(modelio.FlowResponseJSON)
		resp.Cached = hit
		if err := rp.encode(root, resp); err != nil {
			return nil, err
		}
		return canonicalFlow(resp)
	case "/v1/dse":
		var req modelio.DSERequestJSON
		sp := rp.rec.begin(id, "decode", root)
		err := modelio.DecodeJSON(strings.NewReader(r.body), &req)
		rp.rec.end(sp, 0)
		if err != nil {
			return nil, err
		}
		v, hit, err := rp.cache.Do(ctx, key, func() (any, error) { return rp.dse(ctx, root, req) })
		if err != nil {
			return nil, err
		}
		resp := v.(modelio.DSEResponseJSON)
		resp.Cached = hit
		if err := rp.encode(root, resp); err != nil {
			return nil, err
		}
		canon, _, err := canonicalDSE(resp)
		return canon, err
	}
	return nil, fmt.Errorf("no replay for %s", r.path)
}

func (rp *replayer) encode(root int, resp any) error {
	sp := rp.rec.begin(rp.req, "encode", root)
	defer rp.rec.end(sp, 0)
	var buf bytes.Buffer
	return modelio.EncodeJSON(&buf, resp)
}

// kernel is the innermost analysis hook: one span per state-space
// exploration, recording its state count.
func (rp *replayer) kernel(g *sdf.Graph, opt statespace.Options) (statespace.Result, error) {
	sp := rp.rec.begin(rp.req, "statespace", rp.parent)
	res, err := statespace.Analyze(g, opt)
	rp.rec.end(sp, int64(res.StatesExplored))
	return res, err
}

// memo memoizes the kernel in the content cache the way cache.Analyzer
// does, so the replay reuses analyses exactly where the service does.
func (rp *replayer) memo(ctx context.Context) analyzeFunc {
	return func(g *sdf.Graph, opt statespace.Options) (statespace.Result, error) {
		opt.Telemetry = rp.explorer
		v, _, err := rp.cache.Do(ctx, cache.AnalysisKey(g, opt), func() (any, error) {
			opt.Interrupt = ctx.Done()
			r, err := rp.kernel(g, opt)
			if err != nil {
				return nil, err
			}
			r.MaxTokens = nil
			return r, nil
		})
		if err != nil {
			return statespace.Result{}, err
		}
		return v.(statespace.Result), nil
	}
}

// flow mirrors the service's flow job: resolve, architecture, mapping,
// platform generation, simulation and the expected-case analysis.
func (rp *replayer) flow(ctx context.Context, root int, req modelio.FlowRequestJSON) (any, error) {
	id := rp.req
	sp := rp.rec.begin(id, "resolve", root)
	app, iterations, err := resolveMJPEG(req.Workload)
	rp.rec.end(sp, 0)
	if err != nil {
		return nil, err
	}
	ic, err := parseInterconnect(req.Interconnect)
	if err != nil {
		return nil, err
	}
	sp = rp.rec.begin(id, "arch", root)
	plat, err := arch.DefaultTemplate().Generate(app.Name+"_plat", req.Tiles, ic)
	rp.rec.end(sp, 0)
	if err != nil {
		return nil, err
	}

	opts := mapping.Options{UseCA: req.UseCA, Analyze: rp.warm.Analyzer(rp.memo(ctx))}
	rp.parent = rp.rec.begin(id, "mapping", root)
	m, err := mapping.Map(app, plat, opts)
	rp.rec.end(rp.parent, 0)
	if err != nil {
		return nil, err
	}

	sp = rp.rec.begin(id, "platgen", root)
	proj, err := platgen.Generate(m)
	rp.rec.end(sp, 0)
	if err != nil {
		return nil, err
	}

	sp = rp.rec.begin(id, "sim", root)
	var simRes *sim.Result
	s, err := sim.New(m, sim.Options{
		Iterations: iterations, RefActor: mjpegRefActor, Scenario: "service",
		Interrupt: ctx.Done(), Telemetry: rp.simStats,
	})
	if err == nil {
		simRes, err = s.RunContext(ctx)
	}
	if err != nil {
		rp.rec.end(sp, 0)
		return nil, err
	}
	rp.rec.end(sp, s.Now())

	opts.ExecTimes = simRes.Profile.MaxTimes()
	opts.FixedBinding = make(map[string]int, app.Graph.NumActors())
	for _, a := range app.Graph.Actors() {
		opts.FixedBinding[a.Name] = m.TileOf[a.ID]
	}
	rp.parent = rp.rec.begin(id, "expected", root)
	exp, err := mapping.Map(app, plat, opts)
	rp.rec.end(rp.parent, 0)
	if err != nil {
		return nil, err
	}
	return modelio.NewFlowResponseJSON(&flow.Result{
		Platform: plat, Mapping: m, Project: proj,
		WorstCase: m.Analysis.Throughput, Measured: simRes.Throughput, Expected: exp.Analysis.Throughput,
		Profile: simRes.Profile, Sim: simRes,
	}), nil
}

// dse mirrors the service's sweep job: resolve the XML model, then sweep
// with the service's cache and counters.
func (rp *replayer) dse(ctx context.Context, root int, req modelio.DSERequestJSON) (any, error) {
	sp := rp.rec.begin(rp.req, "resolve", root)
	app, err := modelio.ReadApp([]byte(req.AppXML))
	rp.rec.end(sp, 0)
	if err != nil {
		return nil, err
	}
	cfg, err := dseConfig(req)
	if err != nil {
		return nil, err
	}
	cfg.Cache = rp.cache
	cfg.MapOptions.Analyze = rp.memo(ctx)
	cfg.Obs = &obs.Set{Explorer: rp.explorer, Solver: rp.solver}
	rp.parent = rp.rec.begin(rp.req, "dse", root)
	points, err := dse.SweepContext(ctx, app, cfg)
	rp.rec.end(rp.parent, 0)
	if err != nil {
		return nil, err
	}
	return modelio.NewDSEResponseJSON(app.Name, points), nil
}
