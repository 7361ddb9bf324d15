package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"

	"mamps/internal/appmodel"
	"mamps/internal/arch"
	"mamps/internal/modelio"
	"mamps/internal/sdf"
)

// The request generator. Every stream is a pure function of the workload
// name and the seed: the same seed gives a byte-identical stream. The
// service under test only ever sees the generated request bodies.

// request is one generated HTTP request. Equal bodies must get
// byte-identical result fields.
type request struct {
	path string // "/v1/flow" or "/v1/dse"
	body string
}

// stream is a workload's generated input: untimed priming requests and
// the measured request sequence.
type stream struct {
	prime []request
	reqs  []request
}

// Parameter ranges of the generated requests.
var (
	mjpegSequences = []string{"synthetic", "gradient", "bouncing-box", "plasma", "checker-noise", "bars"}
	interconnects  = []string{"fsl", "noc"}
)

const (
	frameSize            = 32 // width and height of every MJPEG frame
	minFrames, maxFrames = 1, 2
	// Qualities of 96 and above make the expected-case analysis explode
	// on some platforms (0.1–0.7 s, 250 MB); one such request moves a
	// run's p99 and peak memory by itself.
	minQuality, maxQuality   = 5, 95
	minTiles, maxTiles       = 3, 6 // flow platforms
	designLoopWindow         = 64   // repeats draw from this many recent distinct requests
	designLoopMissPeriod     = 4    // every 4th design-loop request is a near-miss
	dseMinTiles              = 2
	dseMaxTiles              = 6
	dseSolverPeriod          = 8 // every 8th DSE request enables the solver
	dseSolverMaxTiles        = 3
	dseSolverBudget          = 16
	graphMinActors           = 4
	graphMaxActors           = 10
	graphMaxRate             = 3
	graphMinWCET             = 50
	graphMaxWCET             = 2000
	graphMinBack             = 1
	graphMaxBack             = 3
	graphMaxRepetition       = 6 // rejection bound on repetition-vector entries
	graphMinTokenBytes       = 4
	graphMaxTokenWords       = 8
	graphMinMem, graphMaxMem = 1024, 8192 // bytes per actor, instruction and data each
)

// flowParams are the knobs of one MJPEG flow request.
type flowParams struct {
	seq          string
	frames       int
	quality      int
	tiles        int
	interconnect string
	useCA        bool
}

func (p flowParams) platform() flowParams {
	return flowParams{tiles: p.tiles, interconnect: p.interconnect, useCA: p.useCA}
}

func (p flowParams) request() request {
	body, err := marshal(modelio.FlowRequestJSON{
		Workload: &modelio.WorkloadJSON{
			Name: "mjpeg", Width: frameSize, Height: frameSize,
			Frames: p.frames, Quality: p.quality, Sequence: p.seq,
		},
		Tiles:        p.tiles,
		Interconnect: p.interconnect,
		Iterations:   -1,
		UseCA:        p.useCA,
	})
	if err != nil {
		panic(err) // marshalling a plain struct cannot fail
	}
	return request{path: "/v1/flow", body: body}
}

func drawFlow(rng *rand.Rand) flowParams {
	return flowParams{
		seq:          mjpegSequences[rng.Intn(len(mjpegSequences))],
		frames:       minFrames + rng.Intn(maxFrames-minFrames+1),
		quality:      minQuality + rng.Intn(maxQuality-minQuality+1),
		tiles:        minTiles + rng.Intn(maxTiles-minTiles+1),
		interconnect: interconnects[rng.Intn(len(interconnects))],
		useCA:        rng.Intn(2) == 1,
	}
}

// newRand derives a workload's PRNG from the seed, salted by the workload
// name so workloads sharing a seed draw independent streams.
func newRand(workload string, seed int64) *rand.Rand {
	var salt int64
	for _, c := range workload {
		salt = salt*131 + int64(c)
	}
	return rand.New(rand.NewSource(seed ^ salt))
}

// generate builds the stream of a workload with n measured requests.
func generate(workload string, seed int64, n int) (stream, error) {
	rng := newRand(workload, seed)
	switch workload {
	case "flow-cold":
		return genFlowCold(rng, n), nil
	case "design-loop":
		return genDesignLoop(rng, n)
	case "dse-sweep":
		return genDSESweep(rng, n)
	}
	return stream{}, fmt.Errorf("unknown workload %q", workload)
}

// genFlowCold primes with one request per sequence kind, then draws every
// request independently.
func genFlowCold(rng *rand.Rand, n int) stream {
	var s stream
	for _, seq := range mjpegSequences {
		p := drawFlow(rng)
		p.seq = seq
		s.prime = append(s.prime, p.request())
	}
	for i := 0; i < n; i++ {
		s.reqs = append(s.reqs, drawFlow(rng).request())
	}
	return s
}

// genDesignLoop primes with one request per platform configuration. Then
// every designLoopMissPeriod-th request is a never-seen near-miss (new
// sequence, frames and quality on a primed platform) and the others
// repeat one of the designLoopWindow most recent distinct requests,
// never the newest, which may still be in flight on the other client.
func genDesignLoop(rng *rand.Rand, n int) (stream, error) {
	var s stream
	space := (maxTiles - minTiles + 1) * len(interconnects) * 2 *
		len(mjpegSequences) * (maxFrames - minFrames + 1) * (maxQuality - minQuality + 1)
	if misses := n / designLoopMissPeriod; misses > space*3/4 {
		return s, fmt.Errorf("design-loop: %d near-misses requested, but only %d distinct requests exist; measure for fewer seconds", misses, space)
	}
	var platforms []flowParams
	seen := make(map[flowParams]bool)
	var distinct []request
	for tiles := minTiles; tiles <= maxTiles; tiles++ {
		for _, ic := range interconnects {
			for _, ca := range []bool{false, true} {
				p := drawFlow(rng)
				p.tiles, p.interconnect, p.useCA = tiles, ic, ca
				platforms = append(platforms, p.platform())
				seen[p] = true
				r := p.request()
				s.prime = append(s.prime, r)
				distinct = append(distinct, r)
			}
		}
	}
	for i := 0; i < n; i++ {
		if i%designLoopMissPeriod == designLoopMissPeriod-1 {
			var p flowParams
			for {
				p = drawFlow(rng)
				plat := platforms[rng.Intn(len(platforms))]
				p.tiles, p.interconnect, p.useCA = plat.tiles, plat.interconnect, plat.useCA
				if !seen[p] {
					break
				}
			}
			seen[p] = true
			r := p.request()
			distinct = append(distinct, r)
			s.reqs = append(s.reqs, r)
			continue
		}
		lo := max(0, len(distinct)-designLoopWindow)
		s.reqs = append(s.reqs, distinct[lo+rng.Intn(len(distinct)-1-lo)])
	}
	return s, nil
}

// genDSESweep primes with sweeps over graphs outside the measured stream,
// then sweeps a new generated graph per request.
func genDSESweep(rng *rand.Rand, n int) (stream, error) {
	var s stream
	for i := 0; i < 4; i++ {
		r, err := dseRequest(rng, fmt.Sprintf("prime%d", i), i == 3)
		if err != nil {
			return s, err
		}
		s.prime = append(s.prime, r)
	}
	for i := 0; i < n; i++ {
		r, err := dseRequest(rng, fmt.Sprintf("g%d", i), i%dseSolverPeriod == dseSolverPeriod-1)
		if err != nil {
			return s, err
		}
		s.reqs = append(s.reqs, r)
	}
	return s, nil
}

func dseRequest(rng *rand.Rand, name string, solver bool) (request, error) {
	app := genApp(rng, name)
	xml, err := modelio.WriteApp(app)
	if err != nil {
		return request{}, fmt.Errorf("generated graph %s: %w", name, err)
	}
	req := modelio.DSERequestJSON{
		AppXML:        string(xml),
		MinTiles:      dseMinTiles,
		MaxTiles:      dseMaxTiles,
		Interconnects: interconnects,
	}
	if solver {
		req.MaxTiles = dseSolverMaxTiles
		req.Solver = true
		req.SolverNodeBudget = dseSolverBudget
	}
	body, err := marshal(req)
	if err != nil {
		return request{}, err
	}
	return request{path: "/v1/dse", body: body}, nil
}

// marshal encodes a request body without escaping the XML it carries.
func marshal(v any) (string, error) {
	var buf strings.Builder
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		return "", err
	}
	return strings.TrimSuffix(buf.String(), "\n"), nil
}

// genApp draws an SDF application that is consistent and live by
// construction: a chain a0→a1→…→a(n−1) with rates 1..graphMaxRate, plus
// back edges aj→ai (j > i) whose rates balance the chain's repetition
// vector and whose initial tokens are one full iteration. Every cycle
// crosses a back edge, and a back edge with a full iteration of tokens
// lets every actor on the cycle complete an iteration, so no cycle can
// deadlock.
//
// The first back edge always closes the whole chain, so every graph is
// strongly connected. Without it about one graph in a hundred explored
// 10^5 to 10^6 states per sweep (0.2 to 2 s, over 1 GB of heap), which
// no run of a few seconds measures steadily. Rate draws whose repetition
// vector exceeds graphMaxRepetition are redrawn for the same reason.
func genApp(rng *rand.Rand, name string) *appmodel.App {
	n := graphMinActors + rng.Intn(graphMaxActors-graphMinActors+1)
	var src, dst []int
	var q []int64
	for {
		src, dst = make([]int, n-1), make([]int, n-1)
		for i := range src {
			src[i] = 1 + rng.Intn(graphMaxRate)
			dst[i] = 1 + rng.Intn(graphMaxRate)
		}
		if q = chainRepetitions(src, dst); q != nil {
			break
		}
	}
	g := sdf.NewGraph(name)
	actors := make([]*sdf.Actor, n)
	for i := range actors {
		actors[i] = g.AddActor(fmt.Sprintf("a%d", i), graphMinWCET+rng.Int63n(graphMaxWCET-graphMinWCET+1))
	}
	for i := 0; i < n-1; i++ {
		c := g.Connect(actors[i], actors[i+1], src[i], dst[i], 0)
		c.TokenSize = tokenBytes(rng)
	}
	backs := graphMinBack + rng.Intn(graphMaxBack-graphMinBack+1)
	used := make(map[[2]int]bool)
	for len(used) < backs {
		// The first back edge closes the whole chain.
		i, j := 0, n-1
		if len(used) > 0 {
			i = rng.Intn(n - 1)
			j = i + 1 + rng.Intn(n-1-i)
		}
		if used[[2]int{j, i}] {
			continue
		}
		used[[2]int{j, i}] = true
		d := gcd(q[i], q[j])
		prod, cons := int(q[i]/d), int(q[j]/d)
		c := g.Connect(actors[j], actors[i], prod, cons, int(q[j])*prod)
		c.TokenSize = tokenBytes(rng)
	}
	app := appmodel.New(name, g)
	for _, a := range actors {
		app.AddImpl(a, appmodel.Impl{
			PE:       arch.MicroBlaze,
			WCET:     a.ExecTime,
			InstrMem: graphMinMem + rng.Intn(graphMaxMem-graphMinMem+1),
			DataMem:  graphMinMem + rng.Intn(graphMaxMem-graphMinMem+1),
		})
	}
	return app
}

func tokenBytes(rng *rand.Rand) int {
	return graphMinTokenBytes * (1 + rng.Intn(graphMaxTokenWords))
}

// chainRepetitions returns the normalized repetition vector of a chain
// with the given production and consumption rates, or nil when an entry
// exceeds graphMaxRepetition.
func chainRepetitions(prod, cons []int) []int64 {
	// q[i+1] = q[i]·prod[i]/cons[i]; scale by the product of consumption
	// rates to stay integral, then divide out the common factor.
	q := make([]int64, len(prod)+1)
	q[0] = 1
	for _, c := range cons {
		q[0] *= int64(c)
	}
	for i := range prod {
		q[i+1] = q[i] * int64(prod[i]) / int64(cons[i])
	}
	d := q[0]
	for _, v := range q {
		d = gcd(d, v)
	}
	for i := range q {
		q[i] /= d
		if q[i] > graphMaxRepetition {
			return nil
		}
	}
	return q
}

func gcd(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
