package shard

import (
	"encoding/binary"
	"runtime"
	"testing"
)

func key(i int) []byte {
	var b [6]byte
	binary.LittleEndian.PutUint32(b[:4], uint32(i))
	b[4] = byte(i >> 3)
	b[5] = 0xA5
	return b[:]
}

func TestLookupOrInsert(t *testing.T) {
	s := Get(Hint{})
	defer s.Release()
	const n = 5000 // crosses several slot doublings and arena growths
	for i := 0; i < n; i++ {
		k := key(i)
		if _, ok := s.LookupOrInsert(s.Hash(k), k, Visit{Time: int64(i), Completions: int64(2 * i)}); ok {
			t.Fatalf("state %d reported as revisit on first insert", i)
		}
	}
	if s.Len() != n {
		t.Fatalf("Len = %d, want %d", s.Len(), n)
	}
	for i := 0; i < n; i++ {
		k := key(i)
		v, ok := s.LookupOrInsert(s.Hash(k), k, Visit{Time: -1, Completions: -1})
		if !ok {
			t.Fatalf("state %d not found on lookup", i)
		}
		if v.Time != int64(i) || v.Completions != int64(2*i) {
			t.Fatalf("state %d visit = %+v, want {%d %d}", i, v, i, 2*i)
		}
	}
	if s.Len() != n {
		t.Fatalf("Len after lookups = %d, want %d (lookups must not insert)", s.Len(), n)
	}
	if s.ArenaBytes() != n*len(key(0)) {
		t.Fatalf("ArenaBytes = %d, want %d", s.ArenaBytes(), n*len(key(0)))
	}
}

func TestVariableLengthKeys(t *testing.T) {
	s := Get(Hint{States: 16})
	defer s.Release()
	// A key that is a prefix of another must stay distinct.
	long := []byte{1, 2, 3, 4, 5}
	short := long[:3]
	if _, ok := s.LookupOrInsert(s.Hash(long), long, Visit{Time: 1}); ok {
		t.Fatal("long key present in empty segment")
	}
	if _, ok := s.LookupOrInsert(s.Hash(short), short, Visit{Time: 2}); ok {
		t.Fatal("prefix key matched longer stored key")
	}
	if v, ok := s.LookupOrInsert(s.Hash(long), long, Visit{}); !ok || v.Time != 1 {
		t.Fatalf("long key lookup = %+v,%v", v, ok)
	}
	if v, ok := s.LookupOrInsert(s.Hash(short), short, Visit{}); !ok || v.Time != 2 {
		t.Fatalf("short key lookup = %+v,%v", v, ok)
	}
}

func TestResetAndReuse(t *testing.T) {
	s := Get(Hint{States: 8, KeyBytes: 6})
	for i := 0; i < 2000; i++ {
		k := key(i)
		s.LookupOrInsert(s.Hash(k), k, Visit{Time: int64(i)})
	}
	grownSlots, grownArena := s.Slots(), cap(s.arena)
	s.Reset()
	if s.Len() != 0 || s.ArenaBytes() != 0 {
		t.Fatalf("after Reset: Len=%d ArenaBytes=%d, want 0,0", s.Len(), s.ArenaBytes())
	}
	if s.Slots() != grownSlots || cap(s.arena) != grownArena {
		t.Fatal("Reset must keep grown capacity")
	}
	// No stale hit may survive a reset.
	k := key(17)
	if _, ok := s.LookupOrInsert(s.Hash(k), k, Visit{Time: 99}); ok {
		t.Fatal("stale state visible after Reset")
	}
	s.Release()

	// A released segment comes back from the pool empty but still grown.
	r := Get(Hint{States: 2000, KeyBytes: 6})
	if r != s {
		t.Skip("pool did not return the released segment (GC ran); nothing to assert")
	}
	if r.Len() != 0 {
		t.Fatalf("recycled segment not empty: Len=%d", r.Len())
	}
	if r.Slots() != grownSlots {
		t.Fatalf("recycled segment lost capacity: slots=%d, want %d", r.Slots(), grownSlots)
	}
	r.Release()
}

func TestClassFor(t *testing.T) {
	if c := classFor(0); c != 0 {
		t.Errorf("classFor(0) = %d", c)
	}
	if c := classFor(1 << minClassBits); c != 0 {
		t.Errorf("classFor(4KiB) = %d", c)
	}
	if c := classFor(1<<minClassBits + 1); c != 1 {
		t.Errorf("classFor(4KiB+1) = %d", c)
	}
	if c := classFor(1 << 30); c != numClasses-1 {
		t.Errorf("classFor(1GiB) = %d, want top class %d", c, numClasses-1)
	}
}

func TestGetHonorsHint(t *testing.T) {
	// Get prefers any recycled segment over a cold allocation, so drain the
	// pool (keeping every segment) until a cold-allocated one appears; that
	// one must be sized for the hint: 100k states need ≥ 100k*4/3 slots,
	// rounded to a power of two ⇒ ≥ 2^17.
	var held []*Segment
	defer func() {
		for _, s := range held {
			s.Release()
		}
	}()
	for i := 0; i < 64; i++ {
		s := Get(Hint{States: 100_000, KeyBytes: 8})
		held = append(held, s)
		if s.Slots() >= 1<<17 && cap(s.arena) >= 100_000*8 {
			return
		}
	}
	t.Errorf("no segment sized for the 100k-state hint after draining the pool")
}

// TestReleasedSegmentReusedFromAnyP: the segment an analysis releases is
// the one the next Get returns, even when the two run on different Ps
// and collections have emptied the pool in between: the sequential kernel
// releases a single segment per analysis, which a sync.Pool alone would
// keep in the releasing P's private slot.
func TestReleasedSegmentReusedFromAnyP(t *testing.T) {
	h := Hint{States: 4000, KeyBytes: 16}
	s := newSegment(h) // not Get: a recycled one could exceed the spare budget
	for i := 0; i < 10; i++ {
		released := make(chan struct{})
		go func() {
			s.Release()
			close(released)
		}()
		<-released
		runtime.GC()
		runtime.GC()
		got := Get(h)
		if got != s {
			t.Fatalf("round %d: Get allocated a new segment instead of reusing the released one", i)
		}
	}
	s.Release()
}

// TestSpareBudget: the segments held outside the pool never take more
// than spareBytes of whole-segment memory together, the latest release
// that fits the budget is always held, and a segment larger than the
// budget is never held.
func TestSpareBudget(t *testing.T) {
	var segs []*Segment
	for states := 1 << 8; states <= 1<<19; states *= 2 {
		segs = append(segs, newSegment(Hint{States: states, KeyBytes: 16}))
	}
	if big := segs[len(segs)-1]; big.footprint() <= spareBytes {
		t.Fatalf("largest test segment takes %d bytes, want more than %d", big.footprint(), spareBytes)
	}
	// Release largest first, so the budget forces evictions.
	for i := len(segs) - 1; i >= 0; i-- {
		s := segs[i]
		s.Release()
		spare.mu.Lock()
		sum, held := 0, false
		for _, x := range spare.segs {
			sum += x.footprint()
			held = held || x == s
		}
		if sum != spare.bytes || sum > spareBytes {
			t.Errorf("spare holds %d bytes (accounted %d), budget %d", sum, spare.bytes, spareBytes)
		}
		if fits := s.footprint() <= spareBytes; held != fits {
			t.Errorf("latest release of %d bytes: held %v, want %v", s.footprint(), held, fits)
		}
		spare.mu.Unlock()
	}
}
