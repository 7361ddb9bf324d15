package cache

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mamps/internal/arch"
	"mamps/internal/mapping"
	"mamps/internal/mjpeg"
	"mamps/internal/sdf"
	"mamps/internal/statespace"
)

// TestSingleFlight is the acceptance test of the dedup guarantee: N
// goroutines requesting one key trigger exactly one computation. Run
// under -race it also exercises the cache's synchronization.
func TestSingleFlight(t *testing.T) {
	const n = 64
	c := New(16)
	var computations atomic.Int64
	started := make(chan struct{})

	var wg sync.WaitGroup
	results := make([]any, n)
	hits := make([]bool, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-started
			results[i], hits[i], errs[i] = c.Do(context.Background(), "k", func() (any, error) {
				computations.Add(1)
				time.Sleep(20 * time.Millisecond) // let the others pile up
				return 42, nil
			})
		}(i)
	}
	close(started)
	wg.Wait()

	if got := computations.Load(); got != 1 {
		t.Fatalf("computed %d times, want 1", got)
	}
	leaders := 0
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("goroutine %d: %v", i, errs[i])
		}
		if results[i] != 42 {
			t.Fatalf("goroutine %d: got %v", i, results[i])
		}
		if !hits[i] {
			leaders++
		}
	}
	if leaders != 1 {
		t.Fatalf("%d leaders (hit=false), want exactly 1", leaders)
	}
	st := c.Stats()
	if st.Misses != 1 {
		t.Fatalf("misses = %d, want 1", st.Misses)
	}
	if st.Hits+st.Dedup != n-1 {
		t.Fatalf("hits %d + dedup %d != %d", st.Hits, st.Dedup, n-1)
	}
}

func TestGetAndLRUEviction(t *testing.T) {
	c := New(2)
	ctx := context.Background()
	put := func(k string, v int) {
		if _, _, err := c.Do(ctx, k, func() (any, error) { return v, nil }); err != nil {
			t.Fatal(err)
		}
	}
	put("a", 1)
	put("b", 2)
	if _, ok := c.Get("a"); !ok { // touch a so b is now least recent
		t.Fatal("a missing")
	}
	put("c", 3) // evicts b
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted")
	}
	for _, k := range []string{"a", "c"} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("%s should be cached", k)
		}
	}
	if st := c.Stats(); st.Evictions != 1 || st.Entries != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestErrorsNotCached(t *testing.T) {
	c := New(4)
	ctx := context.Background()
	boom := errors.New("boom")
	calls := 0
	fn := func() (any, error) {
		calls++
		if calls == 1 {
			return nil, boom
		}
		return "ok", nil
	}
	if _, _, err := c.Do(ctx, "k", fn); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	v, hit, err := c.Do(ctx, "k", fn)
	if err != nil || v != "ok" || hit {
		t.Fatalf("retry: v=%v hit=%v err=%v", v, hit, err)
	}
	if calls != 2 {
		t.Fatalf("calls = %d, want 2", calls)
	}
}

func TestFollowerHonoursItsContext(t *testing.T) {
	c := New(4)
	release := make(chan struct{})
	leaderIn := make(chan struct{})
	go func() {
		c.Do(context.Background(), "k", func() (any, error) {
			close(leaderIn)
			<-release
			return 1, nil
		})
	}()
	<-leaderIn
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	_, _, err := c.Do(ctx, "k", func() (any, error) { return 2, nil })
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	close(release)
}

func TestPanicReleasesFollowers(t *testing.T) {
	c := New(4)
	leaderIn := make(chan struct{})
	followerErr := make(chan error, 1)
	go func() {
		defer func() { recover() }()
		c.Do(context.Background(), "k", func() (any, error) {
			close(leaderIn)
			time.Sleep(10 * time.Millisecond)
			panic("kaboom")
		})
	}()
	<-leaderIn
	go func() {
		_, _, err := c.Do(context.Background(), "k", func() (any, error) { return 1, nil })
		followerErr <- err
	}()
	select {
	case err := <-followerErr:
		if err == nil {
			t.Fatal("follower got nil error from panicked leader")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("follower deadlocked on panicked leader")
	}
}

// chainGraph builds a simple pipeline with a state self-loop on the head.
func chainGraph(execTimes ...int64) *sdf.Graph {
	g := sdf.NewGraph("chain")
	var prev *sdf.Actor
	for i, et := range execTimes {
		a := g.AddActor(fmt.Sprintf("a%d", i), et)
		g.AddStateChannel(a)
		if prev != nil {
			ch := g.Connect(prev, a, 1, 1, 0)
			ch.Name = fmt.Sprintf("c%d", i)
			back := g.Connect(a, prev, 1, 1, 2)
			back.Name = fmt.Sprintf("s%d", i)
		}
		prev = a
	}
	return g
}

// memoInput is one analysis the memo must answer exactly as the kernel
// does.
type memoInput struct {
	name  string
	build func(t *testing.T) (*sdf.Graph, statespace.Options)
}

// memoInputs covers the kernel's termination paths: a timed cycle, a
// chain with a state self-loop, a multirate cycle, a deadlock, and the
// binding-aware MJPEG 5-tile analyses on both interconnects.
func memoInputs() []memoInput {
	inputs := []memoInput{
		{"cycle", func(t *testing.T) (*sdf.Graph, statespace.Options) {
			g := sdf.NewGraph("cycle")
			a := g.AddActor("a", 2)
			b := g.AddActor("b", 3)
			g.Connect(a, b, 1, 1, 0)
			g.Connect(b, a, 1, 1, 1)
			return g, statespace.Options{}
		}},
		{"chain", func(t *testing.T) (*sdf.Graph, statespace.Options) {
			return chainGraph(3, 5, 2), statespace.Options{}
		}},
		{"multirate", func(t *testing.T) (*sdf.Graph, statespace.Options) {
			g := sdf.NewGraph("mr")
			a := g.AddActor("a", 2)
			b := g.AddActor("b", 3)
			a.MaxConcurrent = 1
			b.MaxConcurrent = 1
			g.Connect(a, b, 2, 1, 0)
			g.Connect(b, a, 1, 2, 2)
			return g, statespace.Options{ReferenceActor: b.ID}
		}},
		{"deadlock", func(t *testing.T) (*sdf.Graph, statespace.Options) {
			g := sdf.NewGraph("dead")
			a := g.AddActor("a", 1)
			b := g.AddActor("b", 1)
			g.Connect(a, b, 1, 1, 0)
			g.Connect(b, a, 1, 1, 0)
			return g, statespace.Options{Schedules: []statespace.Schedule{
				{Tile: "t0", Entries: []sdf.ActorID{a.ID}},
				{Tile: "t1", Entries: []sdf.ActorID{b.ID}},
			}}
		}},
	}
	for _, ic := range []arch.InterconnectKind{arch.FSL, arch.NoC} {
		ic := ic
		inputs = append(inputs, memoInput{"mjpeg-" + ic.String(), func(t *testing.T) (*sdf.Graph, statespace.Options) {
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
		}})
	}
	return inputs
}

// TestAnalyzerMemoizesAndCancels: the memo's miss and its hit both return
// exactly the cold kernel's result, MaxTokens aside (the memo strips it,
// see Analyzer), and a computed analysis honours its context.
func TestAnalyzerMemoizesAndCancels(t *testing.T) {
	c := New(16)
	an := Analyzer(c, context.Background())
	for _, in := range memoInputs() {
		g, opt := in.build(t)
		want, err := statespace.Analyze(g, opt)
		if err != nil {
			t.Fatalf("%s: cold: %v", in.name, err)
		}
		want.MaxTokens = nil
		before := c.Stats()
		for _, step := range []string{"miss", "hit"} {
			got, err := an(g, opt)
			if err != nil {
				t.Fatalf("%s: memo %s: %v", in.name, step, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: memo %s diverged from cold\n got %+v\nwant %+v", in.name, step, got, want)
			}
		}
		if st := c.Stats(); st.Misses-before.Misses != 1 || st.Hits-before.Hits != 1 {
			t.Fatalf("%s: stats %+v after %+v, want 1 more miss and 1 more hit", in.name, st, before)
		}
	}

	// A cancelled context aborts an uncached analysis.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	other := chainGraph(7, 7) // different key, so no cache rescue
	if _, err := Analyzer(c, ctx)(other, statespace.Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}

	// A nil cache still works (uncached, cancellable).
	if _, err := Analyzer(nil, context.Background())(other, statespace.Options{}); err != nil {
		t.Fatalf("nil-cache analyzer: %v", err)
	}
}

// TestAnalyzerDeadlockReportPerTile: two deadlocking analyses that differ
// only in which tile runs which schedule must each get their own
// DeadlockReport back through the cache, not the report of whichever ran
// first.
func TestAnalyzerDeadlockReportPerTile(t *testing.T) {
	g := sdf.NewGraph("dead")
	a := g.AddActor("a", 1)
	b := g.AddActor("b", 1)
	g.Connect(a, b, 1, 1, 0)
	g.Connect(b, a, 1, 1, 0)
	onTiles := func(ta, tb string) statespace.Options {
		return statespace.Options{Schedules: []statespace.Schedule{
			{Tile: ta, Entries: []sdf.ActorID{a.ID}},
			{Tile: tb, Entries: []sdf.ActorID{b.ID}},
		}}
	}
	c := New(16)
	an := Analyzer(c, context.Background())
	for round := 0; round < 2; round++ {
		for _, opt := range []statespace.Options{onTiles("t0", "t1"), onTiles("t1", "t0")} {
			want, err := statespace.Analyze(g, opt)
			if err != nil {
				t.Fatal(err)
			}
			got, err := an(g, opt)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Deadlocked || got.DeadlockReport != want.DeadlockReport {
				t.Errorf("round %d, a on %s: report %q, want %q", round, opt.Schedules[0].Tile, got.DeadlockReport, want.DeadlockReport)
			}
		}
	}
	if st := c.Stats(); st.Hits != 2 || st.Misses != 2 {
		t.Errorf("stats = %+v, want 2 hits 2 misses", st)
	}
}

// TestAnalyzerOnCompleteBypassesMemo: an analysis with an OnComplete hook
// is valued for its side effects, so the memo neither answers nor stores
// it, and the hook fires even when the same analysis is memoized.
func TestAnalyzerOnCompleteBypassesMemo(t *testing.T) {
	c := New(16)
	an := Analyzer(c, context.Background())
	g := chainGraph(3, 5, 2)
	if _, err := an(g, statespace.Options{}); err != nil {
		t.Fatal(err)
	}
	fired := 0
	opt := statespace.Options{OnComplete: func(sdf.ActorID, int64) { fired++ }}
	if _, err := an(g, opt); err != nil {
		t.Fatal(err)
	}
	if fired == 0 {
		t.Fatal("OnComplete never fired: the memo answered a side-effecting analysis")
	}
	if st := c.Stats(); st.Hits != 0 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want the hooked analysis to bypass the memo", st)
	}
}
