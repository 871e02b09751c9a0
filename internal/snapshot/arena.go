package snapshot

import (
	"math"
	"math/bits"
	"sync/atomic" //tradeoffvet:outofband arena plumbing models the literature's big-register assumption; offsets published through model registers carry the ordering
)

// words is the append-only word arena behind the literature's big-register
// assumption. A view (an f-array node's partial snapshot, an Afek cell's
// value, seq and embedded view) is a run of int64 words; a register holds
// the view's word offset instead of the view itself, so every base object
// stays word-sized. Offsets are handed out once and never reused, so a CAS
// on an offset register can never suffer ABA: it behaves like LL/SC.
//
// Reserving a view is one atomic add on the bump pointer. The words live in
// chunks of 2^chunkBits pointer-free words that the GC never scans. The
// reserved ranges partition the offsets, so exactly one view contains each
// chunk's last word and the next chunk's first: that view lives whole in
// its chunk's tail, a slice of its own, and the offsets it covers in the
// next chunk are never used. Chunks are found through a directory of
// buckets that double in size (bucket b holds 2^b chunks), created on
// first use; the directory, like the chunks, grows with the words actually
// reserved, not with the declared limit.
//
// Publication safety: a writer fills its reserved view with plain stores
// and then publishes the offset through an atomic register operation;
// readers obtain the offset from an atomic read, so the words are visible
// by release/acquire ordering. A published view is never written again. A
// reserved view whose offset is never published (a failed CAS) is garbage.
//
//tradeoffvet:outofband view storage behind the big-register abstraction: reserving and reading views are not shared-memory steps, only the offset registers are
type words struct {
	buckets [64 - chunkBits]atomic.Pointer[[]atomic.Pointer[chunk]]
	next    atomic.Int64
	limit   int64 // word budget: reservations ending past it fail
}

const chunkBits = 13 // 8192 words: 64 KiB, a whole number of heap pages

// chunk holds the views that start in it: those that fit in words, and the
// one that runs past its end in tail.
//
//tradeoffvet:outofband view storage behind the big-register abstraction (see words)
type chunk struct {
	words *[1 << chunkBits]int64
	tail  atomic.Pointer[[]int64]
}

// reserve allocates a fresh, zeroed view of w words and returns its offset
// and the view, or false if the arena's budget is spent. The view's cap
// equals its len.
func (a *words) reserve(w int) (int64, []int64, bool) {
	end := a.next.Add(int64(w))
	off := end - int64(w)
	if end > a.limit {
		return 0, nil, false
	}
	c := a.chunk(off)
	if c == nil {
		c = a.create(off)
	}
	if lo := int(off & (1<<chunkBits - 1)); lo+w <= 1<<chunkBits {
		return off, c.words[lo : lo+w : lo+w], true
	}
	tail := make([]int64, w)
	c.tail.Store(&tail)
	return off, tail, true
}

// view returns the w-word view published at offset off. Its cap equals
// its len, so a caller's append copies instead of writing into the arena.
func (a *words) view(off int64, w int) []int64 {
	c := a.chunk(off)
	if lo := int(off & (1<<chunkBits - 1)); lo+w <= 1<<chunkBits {
		return c.words[lo : lo+w : lo+w]
	}
	return *c.tail.Load()
}

// chunk returns the chunk holding offset off, or nil before its first use.
func (a *words) chunk(off int64) *chunk {
	ci := uint64(off>>chunkBits) + 1
	b := bits.Len64(ci) - 1
	bucket := a.buckets[b].Load()
	if bucket == nil {
		return nil
	}
	return (*bucket)[ci-1<<b].Load()
}

// create returns the chunk holding offset off, creating it and its
// directory bucket as needed. Racing creators are reconciled with one CAS
// each; the loser's copy is garbage.
//
//tradeoffvet:outofband view storage behind the big-register abstraction (see words)
func (a *words) create(off int64) *chunk {
	ci := uint64(off>>chunkBits) + 1
	b := bits.Len64(ci) - 1
	bucket := a.buckets[b].Load()
	if bucket == nil {
		fresh := make([]atomic.Pointer[chunk], 1<<b)
		if !a.buckets[b].CompareAndSwap(nil, &fresh) {
			fresh = *a.buckets[b].Load()
		}
		bucket = &fresh
	}
	slot := &(*bucket)[ci-1<<b]
	fresh := &chunk{words: new([1 << chunkBits]int64)}
	if slot.CompareAndSwap(nil, fresh) {
		return fresh
	}
	return slot.Load()
}

// quota admits at most limit uses of a restricted-use object, counting
// every attempt: once the count passes limit, every later take fails.
//
//tradeoffvet:outofband the restricted-use limit is a contract with the caller, not a shared-memory step of the algorithm
type quota struct {
	used  atomic.Int64
	limit int64
	_     [48]byte // a cache line of its own: every update writes used
}

// take admits one use, or reports false once limit uses were admitted.
func (q *quota) take() bool { return q.used.Add(1) <= q.limit }

// wordBudget returns base + count*per, saturating at math.MaxInt64 so a huge
// declared limit costs nothing until it is used.
func wordBudget(base, count, per int64) int64 {
	if per > 0 && count > (math.MaxInt64-base)/per {
		return math.MaxInt64
	}
	return base + count*per
}
