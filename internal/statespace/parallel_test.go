// Concurrent analyses: the DSE worker pool and the service's job workers
// run many analyses at once, and each draws its state store from, and
// returns it to, the shard package's process-wide pool and spare. Every
// analysis must still return exactly what it returns alone, on every
// termination path (recurrence, deadlock by stall, budget exceeded,
// interrupt), and telemetry shared between analyses must add up. make par-smoke runs these tests under the race detector.
//
// Deadlock by recurrence (a recurrent state without reference firings)
// has no case: between two equal states every channel's token balance is
// zero, so on a connected consistent graph the firing counts of the
// period are a multiple of the repetition vector, and either every actor
// fired or none did, while each step of the trajectory completes at least
// one firing. The branch is defensive.
package statespace_test

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"mamps/internal/arch"
	"mamps/internal/mapping"
	"mamps/internal/mjpeg"
	"mamps/internal/obs"
	"mamps/internal/sdf"
	"mamps/internal/statespace"
)

// equivalenceCase is one (graph, options) pair replayed concurrently.
type equivalenceCase struct {
	name  string
	build func(t *testing.T) (*sdf.Graph, statespace.Options)
}

func smallGraphCases() []equivalenceCase {
	return []equivalenceCase{
		{"cycle", func(t *testing.T) (*sdf.Graph, statespace.Options) {
			g := sdf.NewGraph("cycle")
			a := g.AddActor("a", 2)
			b := g.AddActor("b", 3)
			g.Connect(a, b, 1, 1, 0)
			g.Connect(b, a, 1, 1, 1)
			return g, statespace.Options{}
		}},
		{"pipe", func(t *testing.T) (*sdf.Graph, statespace.Options) {
			g := sdf.NewGraph("pipe")
			a := g.AddActor("a", 2)
			b := g.AddActor("b", 3)
			g.Connect(a, b, 1, 1, 0)
			g.Connect(b, a, 1, 1, 2)
			return g, statespace.Options{}
		}},
		{"mr", func(t *testing.T) (*sdf.Graph, statespace.Options) {
			g := sdf.NewGraph("mr")
			a := g.AddActor("a", 2)
			b := g.AddActor("b", 3)
			a.MaxConcurrent = 1
			b.MaxConcurrent = 1
			g.Connect(a, b, 2, 1, 0)
			g.Connect(b, a, 1, 2, 2)
			return g, statespace.Options{}
		}},
		{"sched", func(t *testing.T) (*sdf.Graph, statespace.Options) {
			g := sdf.NewGraph("sched")
			a := g.AddActor("a", 2)
			b := g.AddActor("b", 3)
			g.Connect(a, b, 1, 1, 1)
			g.Connect(b, a, 1, 1, 1)
			return g, statespace.Options{
				Schedules: []statespace.Schedule{{Tile: "t0", Entries: []sdf.ActorID{a.ID, b.ID}}}}
		}},
		{"chain", func(t *testing.T) (*sdf.Graph, statespace.Options) {
			g := sdf.NewGraph("chain")
			a := g.AddActor("a", 3)
			b := g.AddActor("b", 5)
			c := g.AddActor("c", 2)
			g.Connect(a, b, 1, 1, 0)
			g.Connect(b, c, 1, 1, 0)
			g.Connect(c, a, 1, 1, 4)
			return g, statespace.Options{ReferenceActor: c.ID}
		}},
		{"diamond", func(t *testing.T) (*sdf.Graph, statespace.Options) {
			g := sdf.NewGraph("diamond")
			a := g.AddActor("a", 2)
			b := g.AddActor("b", 7)
			c := g.AddActor("c", 3)
			d := g.AddActor("d", 1)
			g.Connect(a, b, 1, 1, 0)
			g.Connect(a, c, 1, 1, 0)
			g.Connect(b, d, 1, 1, 0)
			g.Connect(c, d, 1, 1, 0)
			g.Connect(d, a, 1, 1, 3)
			return g, statespace.Options{ReferenceActor: d.ID}
		}},
		{"dead", func(t *testing.T) (*sdf.Graph, statespace.Options) {
			g := sdf.NewGraph("dead")
			a := g.AddActor("a", 1)
			b := g.AddActor("b", 1)
			g.Connect(a, b, 1, 1, 0)
			g.Connect(b, a, 1, 1, 0)
			return g, statespace.Options{}
		}},
		{"deadsched", func(t *testing.T) (*sdf.Graph, statespace.Options) {
			g := sdf.NewGraph("deadsched")
			a := g.AddActor("a", 1)
			b := g.AddActor("b", 1)
			g.Connect(a, b, 1, 1, 0)
			g.Connect(b, a, 1, 1, 1)
			return g, statespace.Options{
				Schedules: []statespace.Schedule{{Tile: "t0", Entries: []sdf.ActorID{b.ID, a.ID}}}}
		}},
		// stall drains 40 initial tokens through a and b before x, which
		// needs 100 of them at once, blocks the cycle: a deadlock by stall
		// after a transient of ~80 states.
		{"stall", func(t *testing.T) (*sdf.Graph, statespace.Options) {
			g := sdf.NewGraph("stall")
			x := g.AddActor("x", 1)
			a := g.AddActor("a", 2)
			b := g.AddActor("b", 3)
			a.MaxConcurrent = 1
			b.MaxConcurrent = 1
			g.Connect(x, a, 100, 1, 40)
			g.Connect(a, b, 1, 1, 0)
			g.Connect(b, x, 1, 100, 0)
			return g, statespace.Options{ReferenceActor: b.ID}
		}},
	}
}

// mjpegCases builds the binding-aware MJPEG analyses on both
// interconnects — the largest state spaces in the suite.
func mjpegCases(t *testing.T) []equivalenceCase {
	t.Helper()
	var cases []equivalenceCase
	for _, ic := range []arch.InterconnectKind{arch.FSL, arch.NoC} {
		ic := ic
		cases = append(cases, equivalenceCase{
			name: "mjpeg-" + ic.String(),
			build: func(t *testing.T) (*sdf.Graph, statespace.Options) {
				stream, _, err := mjpeg.EncodeSequence(mjpeg.SeqGradient, 32, 32, 2, 90, mjpeg.Sampling420)
				if err != nil {
					t.Fatal(err)
				}
				app, _, err := mjpeg.BuildApp(stream)
				if err != nil {
					t.Fatal(err)
				}
				p, err := arch.DefaultTemplate().Generate("p", 5, ic)
				if err != nil {
					t.Fatal(err)
				}
				m, err := mapping.Map(app, p, mapping.Options{})
				if err != nil {
					t.Fatal(err)
				}
				return m.Expanded.Graph, statespace.Options{Schedules: m.ExpandedSchedules, MaxStates: 1 << 22}
			},
		})
	}
	return cases
}

// concurrency is the number of goroutines each test runs analyses on,
// and rounds the analyses each goroutine runs.
const (
	concurrency = 4
	rounds      = 3
)

// concurrently runs fn(goroutine, round) on concurrency goroutines,
// rounds times each, and reports every error fn returns.
func concurrently(t *testing.T, fn func(gi, round int) error) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make(chan error, concurrency*rounds)
	for gi := 0; gi < concurrency; gi++ {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if err := fn(gi, r); err != nil {
					errs <- fmt.Errorf("goroutine %d, round %d: %w", gi, r, err)
				}
			}
		}(gi)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// outcome is everything an analysis reports: its Result or error and the
// deterministic telemetry counters.
type outcome struct {
	res                                      statespace.Result
	err                                      error
	states, analyses, deadlocks, interrupted int64
}

func analyzeOutcome(g *sdf.Graph, opt statespace.Options) outcome {
	tel := obs.NewExplorerStats(nil)
	opt.Telemetry = tel
	res, err := statespace.Analyze(g, opt)
	return outcome{
		res:         res,
		err:         err,
		states:      tel.StatesTotal.Value(),
		analyses:    tel.Analyses.Value(),
		deadlocks:   tel.Deadlocks.Value(),
		interrupted: tel.Interrupted.Value(),
	}
}

// terminationCases adds the budget-exceeded and interrupt paths on top
// of the recurrence and stall cases: MJPEG under a budget of half its
// trajectory, and pre-interrupted runs of a small graph and MJPEG.
func terminationCases(t *testing.T) []equivalenceCase {
	cases := append(smallGraphCases(), mjpegCases(t)...)
	fsl := mjpegCases(t)[0].build
	closed := make(chan struct{})
	close(closed)
	cases = append(cases,
		equivalenceCase{"mjpeg-budget", func(t *testing.T) (*sdf.Graph, statespace.Options) {
			g, opt := fsl(t)
			opt.MaxStates = 1500
			return g, opt
		}},
		equivalenceCase{"cycle-interrupted", func(t *testing.T) (*sdf.Graph, statespace.Options) {
			g, opt := smallGraphCases()[0].build(t)
			opt.Interrupt = closed
			return g, opt
		}},
		equivalenceCase{"mjpeg-interrupted", func(t *testing.T) (*sdf.Graph, statespace.Options) {
			g, opt := fsl(t)
			opt.Interrupt = closed
			return g, opt
		}},
	)
	return cases
}

// sizeHints are the SizeHint.States values the goroutines of a test
// cycle through, so concurrent analyses draw differently sized segments
// from the pool and spare. A hint never changes the result.
var sizeHints = []int{0, 1 << 6, 1 << 12, 1 << 16}

// TestParallelMatchesSequential runs every case on concurrent goroutines,
// each with its own size hint, and requires the Result (or error) and
// telemetry totals of the same analysis run alone.
func TestParallelMatchesSequential(t *testing.T) {
	for _, c := range terminationCases(t) {
		t.Run(c.name, func(t *testing.T) {
			g, opt := c.build(t)
			want := analyzeOutcome(g, opt)
			concurrently(t, func(gi, _ int) error {
				o := opt
				o.SizeHint.States = sizeHints[gi%len(sizeHints)]
				if got := analyzeOutcome(g, o); !reflect.DeepEqual(got, want) {
					return fmt.Errorf("size hint %d: diverged\n got %+v\nwant %+v", o.SizeHint.States, got, want)
				}
				return nil
			})
		})
	}
}

// TestParallelBudgetExceeded pins the budget boundary under concurrency:
// at MaxStates equal to the first-revisit index every analysis errors,
// even though the revisit was "one state away", and the segment an
// over-budget analysis releases serves the next analysis cleanly.
func TestParallelBudgetExceeded(t *testing.T) {
	g := sdf.NewGraph("cycle")
	a := g.AddActor("a", 2)
	b := g.AddActor("b", 3)
	g.Connect(a, b, 1, 1, 0)
	g.Connect(b, a, 1, 1, 1)
	want, err := statespace.Analyze(g, statespace.Options{})
	if err != nil || want.StatesExplored != 2 {
		t.Fatalf("unbounded run: %+v, %v; want 2 states", want, err)
	}
	concurrently(t, func(_, _ int) error {
		_, err := statespace.Analyze(g, statespace.Options{MaxStates: 2})
		if err == nil || !strings.Contains(err.Error(), "exceeded 2 states") {
			return fmt.Errorf("err = %v, want exceeded-states error", err)
		}
		if got, err := statespace.Analyze(g, statespace.Options{}); err != nil || !reflect.DeepEqual(got, want) {
			return fmt.Errorf("after an over-budget run: %+v, %v; want %+v", got, err, want)
		}
		return nil
	})
}

// TestParallelTelemetryStates: concurrent MJPEG analyses publishing into
// one shared ExplorerStats add up to exactly the per-analysis totals.
func TestParallelTelemetryStates(t *testing.T) {
	for _, c := range mjpegCases(t) {
		t.Run(c.name, func(t *testing.T) {
			g, opt := c.build(t)
			one := analyzeOutcome(g, opt)
			if one.err != nil {
				t.Fatal(one.err)
			}
			shared := obs.NewExplorerStats(nil)
			opt.Telemetry = shared
			concurrently(t, func(_, _ int) error {
				_, err := statespace.Analyze(g, opt)
				return err
			})
			const n = concurrency * rounds
			if got := shared.StatesTotal.Value(); got != n*one.states {
				t.Errorf("StatesTotal = %d, want %d×%d", got, n, one.states)
			}
			if got := shared.Analyses.Value(); got != n {
				t.Errorf("Analyses = %d, want %d", got, n)
			}
			if got := shared.Deadlocks.Value(); got != n*one.deadlocks {
				t.Errorf("Deadlocks = %d, want %d", got, n*one.deadlocks)
			}
			if got := shared.Interrupted.Value(); got != 0 {
				t.Errorf("Interrupted = %d, want 0", got)
			}
		})
	}
}

// TestParallelInterruptStorm interrupts concurrent MJPEG analyses at
// random points. Every outcome must be either ErrInterrupted (counted as
// an interrupt, not an analysis) or the exact result of a lone run, and
// the shared telemetry must count each outcome once.
func TestParallelInterruptStorm(t *testing.T) {
	g, opt := mjpegCases(t)[0].build(t)
	begin := time.Now()
	want, err := statespace.Analyze(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	// Interrupts land anywhere up to twice a lone run's duration, so a
	// good share of the runs complete, under -race too.
	span := int64(2*time.Since(begin) + time.Microsecond)
	shared := obs.NewExplorerStats(nil)
	opt.Telemetry = shared
	var mu sync.Mutex
	interrupted, completed := int64(0), int64(0)
	rngs := make([]*rand.Rand, concurrency)
	for i := range rngs {
		rngs[i] = rand.New(rand.NewSource(int64(7 + i)))
	}
	concurrently(t, func(gi, _ int) error {
		stop := make(chan struct{})
		timer := time.AfterFunc(time.Duration(rngs[gi].Int63n(span)), func() { close(stop) })
		defer timer.Stop()
		o := opt
		o.Interrupt = stop
		got, err := statespace.Analyze(g, o)
		mu.Lock()
		defer mu.Unlock()
		switch {
		case errors.Is(err, statespace.ErrInterrupted):
			interrupted++
		case err != nil:
			return err
		default:
			completed++
			if !reflect.DeepEqual(got, want) {
				return fmt.Errorf("completed result diverged\n got %+v\nwant %+v", got, want)
			}
		}
		return nil
	})
	if shared.Interrupted.Value() != interrupted || shared.Analyses.Value() != completed {
		t.Errorf("telemetry interrupted=%d analyses=%d, want %d and %d",
			shared.Interrupted.Value(), shared.Analyses.Value(), interrupted, completed)
	}
	t.Logf("interrupted=%d completed=%d", interrupted, completed)
}

// TestParallelOnCompleteSequential: the OnComplete hook of each
// concurrent analysis sees exactly the completion sequence of a lone run
// of that analysis, no more and no fewer.
func TestParallelOnCompleteSequential(t *testing.T) {
	g, opt := smallGraphCases()[0].build(t)
	var wantSeq []int64
	opt.OnComplete = func(a sdf.ActorID, now int64) { wantSeq = append(wantSeq, int64(a)<<32|now) }
	want, err := statespace.Analyze(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	concurrently(t, func(_, _ int) error {
		var seq []int64
		o := opt
		o.OnComplete = func(a sdf.ActorID, now int64) { seq = append(seq, int64(a)<<32|now) }
		got, err := statespace.Analyze(g, o)
		if err != nil || !reflect.DeepEqual(got, want) || !reflect.DeepEqual(seq, wantSeq) {
			return fmt.Errorf("diverged: %+v, %v, %d completions; want %+v, %d completions", got, err, len(seq), want, len(wantSeq))
		}
		return nil
	})
}
