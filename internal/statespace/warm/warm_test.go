// Soundness tests: the pass-through cache must answer every request
// bit-identically to the cold analysis and must retain nothing.
package warm_test

import (
	"reflect"
	"testing"

	"mamps/internal/obs"
	"mamps/internal/sdf"
	"mamps/internal/statespace"
	"mamps/internal/statespace/warm"
)

// pipeline builds a 3-actor cycle with the given WCETs.
func pipeline(wcets [3]int64, tokens int) *sdf.Graph {
	g := sdf.NewGraph("pipe3")
	a := g.AddActor("a", wcets[0])
	b := g.AddActor("b", wcets[1])
	c := g.AddActor("c", wcets[2])
	g.Connect(a, b, 1, 1, 0)
	g.Connect(b, c, 1, 1, 0)
	g.Connect(c, a, 1, 1, tokens)
	return g
}

// check runs the request warm and cold and fails on any divergence.
func check(t *testing.T, an warm.AnalyzeFunc, g *sdf.Graph, opt statespace.Options) statespace.Result {
	t.Helper()
	got, err := an(g, opt)
	if err != nil {
		t.Fatalf("warm analyze: %v", err)
	}
	want, err := statespace.Analyze(g, opt)
	if err != nil {
		t.Fatalf("cold analyze: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("warm result diverged from cold\n got %+v\nwant %+v", got, want)
	}
	return got
}

func TestScaledMatchesColdExactly(t *testing.T) {
	// Sweep factors including non-integer rationals; every result for a
	// WCET-scaled graph must equal cold bit for bit (float Throughput
	// included).
	an := warm.New(8, nil).Analyzer(statespace.Analyze)
	base := [3]int64{6, 10, 4}
	check(t, an, pipeline(base, 2), statespace.Options{})
	for _, f := range []struct{ p, q int64 }{{2, 1}, {3, 2}, {1, 2}, {7, 2}, {5, 1}} {
		w := [3]int64{base[0] * f.p / f.q, base[1] * f.p / f.q, base[2] * f.p / f.q}
		check(t, an, pipeline(w, 2), statespace.Options{})
	}
}

func TestEviction(t *testing.T) {
	// A request repeated after more distinct requests than the capacity
	// must reach the inner analyzer again and still match cold. The
	// pass-through retains nothing, so every request reaches it.
	calls := 0
	inner := func(g *sdf.Graph, opt statespace.Options) (statespace.Result, error) {
		calls++
		return statespace.Analyze(g, opt)
	}
	an := warm.New(2, obs.NewWarmStats(nil)).Analyzer(inner)
	check(t, an, pipeline([3]int64{3, 5, 2}, 4), statespace.Options{})
	check(t, an, pipeline([3]int64{3, 5, 2}, 3), statespace.Options{})
	check(t, an, pipeline([3]int64{3, 5, 2}, 2), statespace.Options{}) // evicts the first
	check(t, an, pipeline([3]int64{3, 5, 2}, 4), statespace.Options{})
	if calls != 4 {
		t.Fatalf("inner analyzer calls = %d, want 4: an evicted request was served from the cache", calls)
	}
}
