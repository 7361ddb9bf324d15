package main

import (
	"bytes"
	"encoding/json"
	"testing"

	"mamps/internal/modelio"
	"mamps/internal/sdf"
)

func TestStreamIsAFunctionOfTheSeed(t *testing.T) {
	for _, wl := range workloads {
		a, err := generate(wl.name, 7, 64)
		if err != nil {
			t.Fatal(err)
		}
		b, err := generate(wl.name, 7, 64)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(streamBytes(a), streamBytes(b)) {
			t.Errorf("%s: seed 7 gave two different streams", wl.name)
		}
		c, err := generate(wl.name, 8, 64)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(streamBytes(a), streamBytes(c)) {
			t.Errorf("%s: seeds 7 and 8 gave the same stream", wl.name)
		}
	}
}

func streamBytes(s stream) []byte {
	var b bytes.Buffer
	for _, r := range append(append([]request(nil), s.prime...), s.reqs...) {
		b.WriteString(r.path)
		b.WriteString(r.body)
		b.WriteByte('\n')
	}
	return b.Bytes()
}

func TestDesignLoopMix(t *testing.T) {
	s, err := generate("design-loop", 3, 400)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	for _, r := range s.prime {
		seen[r.body] = true
	}
	for i, r := range s.reqs {
		isNew := !seen[r.body]
		if want := i%designLoopMissPeriod == designLoopMissPeriod-1; isNew != want {
			t.Fatalf("request %d: new %v, want new only at every %dth request", i, isNew, designLoopMissPeriod)
		}
		seen[r.body] = true
	}
}

// TestGeneratedGraphsAreLive checks every generated graph, as the service
// parses it, without trusting the generator: it has a repetition vector,
// and the channels holding less than one iteration of tokens form no
// cycle, so every cycle has a back edge with a full iteration.
func TestGeneratedGraphsAreLive(t *testing.T) {
	s, err := generate("dse-sweep", 11, 300)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range append(s.prime, s.reqs...) {
		var req modelio.DSERequestJSON
		if err := json.Unmarshal([]byte(r.body), &req); err != nil {
			t.Fatal(err)
		}
		app, err := modelio.ReadApp([]byte(req.AppXML))
		if err != nil {
			t.Fatal(err)
		}
		g := app.Graph
		q, err := g.RepetitionVector()
		if err != nil {
			t.Fatalf("%s: no repetition vector: %v", g.Name, err)
		}
		if n := g.NumActors(); n < graphMinActors || n > graphMaxActors {
			t.Errorf("%s: %d actors", g.Name, n)
		}
		if !acyclicBelowIteration(g, q) {
			t.Errorf("%s: a cycle has no channel holding a full iteration of tokens", g.Name)
		}
	}
}

// acyclicBelowIteration reports whether the channels with fewer initial
// tokens than one iteration moves over them form an acyclic graph.
func acyclicBelowIteration(g *sdf.Graph, q []int64) bool {
	indeg := make([]int, g.NumActors())
	var short []*sdf.Channel
	for _, c := range g.Channels() {
		if int64(c.InitialTokens) < g.IterationTokens(c, q) {
			short = append(short, c)
			indeg[c.Dst]++
		}
	}
	var ready []sdf.ActorID
	for a, d := range indeg {
		if d == 0 {
			ready = append(ready, sdf.ActorID(a))
		}
	}
	removed := 0
	for len(ready) > 0 {
		a := ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		removed++
		for _, c := range short {
			if c.Src == a {
				if indeg[c.Dst]--; indeg[c.Dst] == 0 {
					ready = append(ready, c.Dst)
				}
			}
		}
	}
	return removed == g.NumActors()
}
