// Package shard provides the state store of the state-space explorer: an
// open-addressing hash segment over an append-only packed-key arena.
// Collisions are resolved by byte comparison, so the segment never stores
// per-state heap objects or string keys. Each analysis owns one segment,
// touched only by its goroutine, so a segment needs no locks.
//
// Segments recycle through a size-classed pool: a released segment keeps
// the capacity its last exploration grew to, so repeated and concurrent
// analyses (buffer minimization, DSE sweeps, the service) reuse grown
// storage instead of each cold-allocating; a small spare held outside the
// pool makes the latest releases visible from every P. Arena doubling
// likewise releases the outgrown buffer into the pool eagerly instead of
// waiting for GC.
package shard

import (
	"bytes"
	"hash/maphash"
	"sync"
	"sync/atomic"
)

// Visit is the record stored per distinct state: the absolute time the
// state was first reached and the reference actor's completion count at
// that instant.
type Visit struct {
	Time        int64
	Completions int64
}

// Hint pre-sizes a segment from prior knowledge of an exploration's size.
// Zero fields select the defaults (a few hundred states of KeyBytes each).
type Hint struct {
	// States is the expected number of distinct states.
	States int
	// KeyBytes is the typical packed-key length.
	KeyBytes int
}

// Segment is one open-addressing hash segment over an append-only state
// arena. It is not safe for concurrent use.
type Segment struct {
	seed   maphash.Seed
	mask   uint64
	slots  []int32 // arena index + 1; 0 = empty
	hashes []uint64
	offs   []uint32 // offs[i]..offs[i+1] is state i's key in arena
	arena  []byte
	visits []Visit
}

// Size classes are powers of two over the arena byte capacity; everything
// below the smallest class shares it, everything above the largest shares
// that.
const (
	minClassBits = 12 // 4 KiB, the arena-doubling floor
	maxClassBits = 27 // 128 MiB
	numClasses   = maxClassBits - minClassBits + 1
)

func classFor(n int) int {
	c := 0
	for c < numClasses-1 && n > 1<<(minClassBits+c) {
		c++
	}
	return c
}

// segPool recycles whole segments, bucketed by the size class of the arena
// capacity they grew to. classMask records which classes have ever held a
// segment: Get probes only those pools, so the class scan normally touches
// one pool — probing an empty sync.Pool is not free (its per-P local array
// is re-pinned after every GC).
var (
	segPool   [numClasses]sync.Pool
	classMask atomic.Uint32
)

// spare holds the most recently released segment of each size class
// outside segPool, at most spareBytes of whole-segment memory (arena plus
// slot, hash, offset and visit arrays; see footprint) in total. A
// sync.Pool keeps a released object in the releasing P's private slot,
// which a Get on any other P cannot see, and each analysis releases a
// single segment: without the spare, an analysis that runs on another P
// than the previous one regrows its segment from scratch. The latest
// release always enters the spare, evicting the largest other spares to
// the pool when the budget requires; a segment larger than the whole
// budget goes to the pool only, so the storage of a large exploration
// still goes back to the collector.
const spareBytes = 16 << 20

var spare struct {
	mu    sync.Mutex
	segs  [numClasses]*Segment
	bytes int // Σ footprint of segs
}

// bufPool recycles raw arena buffers retired by growArena, so a doubling
// in one analysis reuses the buffer another (or a previous) analysis
// outgrew.
var (
	bufPool [numClasses]sync.Pool
	bufMask atomic.Uint32
)

// Get returns an empty segment sized for the hint. It prefers a recycled
// segment near the hinted size class — scanning larger classes first, then
// smaller, because any recycled segment beats a cold allocation: a small
// one grows, a large one simply has headroom.
func Get(h Hint) *Segment {
	if h.KeyBytes < 4 {
		h.KeyBytes = 4
	}
	if h.States <= 0 {
		h.States = 1 << 8
	}
	want := classFor(h.States * h.KeyBytes)
	mask := classMask.Load()
	for c := want; c < numClasses; c++ {
		if s := take(c, mask); s != nil {
			return s
		}
	}
	for c := want - 1; c >= 0; c-- {
		if s := take(c, mask); s != nil {
			return s
		}
	}
	return newSegment(h)
}

// newSegment allocates an empty segment sized for the hint.
func newSegment(h Hint) *Segment {
	s := &Segment{seed: maphash.MakeSeed()}
	slots := 1 << 10
	for slots*3 < h.States*4 {
		slots *= 2
	}
	s.slots = make([]int32, slots)
	s.mask = uint64(slots - 1)
	s.offs = make([]uint32, 1, h.States+1)
	s.arena = make([]byte, 0, h.States*h.KeyBytes)
	s.visits = make([]Visit, 0, h.States)
	s.hashes = make([]uint64, 0, h.States)
	return s
}

// take returns a recycled segment of class c, reset, or nil: the spare
// first, then the pool.
func take(c int, mask uint32) *Segment {
	spare.mu.Lock()
	s := spare.segs[c]
	if s != nil {
		spare.segs[c] = nil
		spare.bytes -= s.footprint()
	}
	spare.mu.Unlock()
	if s != nil {
		s.Reset()
		return s
	}
	if mask&(1<<c) == 0 {
		return nil
	}
	if v := segPool[c].Get(); v != nil {
		s := v.(*Segment)
		s.Reset()
		return s
	}
	return nil
}

// Release returns the segment for reuse. The caller must not touch it
// afterwards; nothing in an analysis Result aliases segment memory.
func (s *Segment) Release() {
	if s.footprint() > spareBytes {
		s.pool()
		return
	}
	var out [numClasses]*Segment // displaced spares, pooled after unlocking
	c := classFor(cap(s.arena))
	spare.mu.Lock()
	out[c] = spare.segs[c]
	spare.segs[c] = s
	spare.bytes += s.footprint() - out[c].footprint()
	for big := numClasses - 1; spare.bytes > spareBytes; big-- {
		if x := spare.segs[big]; x != nil && big != c {
			out[big], spare.segs[big] = x, nil
			spare.bytes -= x.footprint()
		}
	}
	spare.mu.Unlock()
	for _, x := range out {
		if x != nil {
			x.pool()
		}
	}
}

// pool puts the segment into segPool under its size class.
func (s *Segment) pool() {
	c := classFor(cap(s.arena))
	segPool[c].Put(s)
	orBit(&classMask, c)
}

// footprint is the bytes held by the segment's backing arrays; zero for
// nil.
func (s *Segment) footprint() int {
	if s == nil {
		return 0
	}
	return cap(s.arena) + 4*cap(s.slots) + 8*cap(s.hashes) + 4*cap(s.offs) + 16*cap(s.visits)
}

// orBit sets bit c in m (compare-and-swap loop; atomic Or needs go1.23).
func orBit(m *atomic.Uint32, c int) {
	for {
		old := m.Load()
		if old&(1<<c) != 0 || m.CompareAndSwap(old, old|1<<c) {
			return
		}
	}
}

// Reset empties the segment, keeping every backing array.
func (s *Segment) Reset() {
	clear(s.slots)
	s.offs = s.offs[:1]
	s.arena = s.arena[:0]
	s.visits = s.visits[:0]
	s.hashes = s.hashes[:0]
}

// Hash returns the segment's hash of key, to pass to LookupOrInsert.
func (s *Segment) Hash(key []byte) uint64 { return maphash.Bytes(s.seed, key) }

// Len is the number of distinct states stored.
func (s *Segment) Len() int { return len(s.visits) }

// ArenaBytes is the number of packed key bytes stored.
func (s *Segment) ArenaBytes() int { return len(s.arena) }

// Slots is the current slot-array size.
func (s *Segment) Slots() int { return len(s.slots) }

// LookupOrInsert returns the stored visit and true when key (with
// precomputed hash h) is already present; otherwise it records (key, v)
// and returns false.
func (s *Segment) LookupOrInsert(h uint64, key []byte, v Visit) (Visit, bool) {
	i := h & s.mask
	for {
		e := s.slots[i]
		if e == 0 {
			break
		}
		j := e - 1
		if s.hashes[j] == h && bytes.Equal(key, s.arena[s.offs[j]:s.offs[j+1]]) {
			return s.visits[j], true
		}
		i = (i + 1) & s.mask
	}
	n := len(s.visits)
	if len(s.arena)+len(key) > cap(s.arena) {
		s.growArena(len(key))
	}
	s.arena = append(s.arena, key...)
	s.offs = append(s.offs, uint32(len(s.arena)))
	s.visits = append(s.visits, v)
	s.hashes = append(s.hashes, h)
	s.slots[i] = int32(n + 1)
	if uint64(len(s.visits))*4 >= uint64(len(s.slots))*3 {
		s.grow()
	}
	return Visit{}, false
}

// growArena doubles the arena. Doubling (instead of append's shrinking
// growth factor) bounds re-copies; routing the buffers through the pool
// means the outgrown buffer is released eagerly for the next doubling,
// in this or a concurrent analysis.
func (s *Segment) growArena(need int) {
	nc := 2 * cap(s.arena)
	if nc < 1<<minClassBits {
		nc = 1 << minClassBits
	}
	for nc < len(s.arena)+need {
		nc *= 2
	}
	na := getBuf(nc)[:len(s.arena)]
	copy(na, s.arena)
	putBuf(s.arena)
	s.arena = na
}

// grow doubles the slot array and rehashes the stored indices (the arena
// itself never moves entries).
func (s *Segment) grow() {
	slots := make([]int32, len(s.slots)*2)
	mask := uint64(len(slots) - 1)
	for j, h := range s.hashes {
		i := h & mask
		for slots[i] != 0 {
			i = (i + 1) & mask
		}
		slots[i] = int32(j + 1)
	}
	s.slots, s.mask = slots, mask
}

// getBuf returns a zero-length buffer with capacity at least n, recycled
// when the matching size class has one.
func getBuf(n int) []byte {
	c := classFor(n)
	if bufMask.Load()&(1<<c) != 0 {
		if v := bufPool[c].Get(); v != nil {
			if b := *v.(*[]byte); cap(b) >= n {
				return b[:0]
			}
		}
	}
	size := 1 << (minClassBits + c)
	if size < n {
		size = n
	}
	return make([]byte, 0, size)
}

// putBuf releases an outgrown buffer into its size class.
func putBuf(b []byte) {
	if cap(b) < 1<<minClassBits {
		return
	}
	b = b[:0]
	c := classFor(cap(b))
	bufPool[c].Put(&b)
	orBit(&bufMask, c)
}
