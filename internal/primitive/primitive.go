// Package primitive defines the shared-memory base objects and access
// primitives of the paper's model (Hendler & Khait, PODC 2014, Section 2).
//
// A base object is a word-sized Register supporting the read, write, and
// compare-and-swap (CAS) primitives. Algorithms never touch a Register
// directly; every shared-memory event goes through a Context, which carries
// the identity of the process issuing the event. This indirection is what
// lets the same algorithm code run on bare sync/atomic (Direct), with exact
// step accounting (Counting), or under the deterministic adversarial
// scheduler in internal/sim.
//
// A "step" in the paper is exactly one shared-memory event: one call to
// Context.Read, Context.Write, or Context.CAS.
//
// Layout never changes a step. A pool built with NewPadded gives each
// register from New a cache line of its own, and NewNear places a register
// on an earlier one's line on purpose, for registers every operation
// touches together (the f-array root and its two children).
package primitive

import (
	"fmt"
	"sync"
	"sync/atomic"
	"unsafe"
)

// Register is a single word-sized shared base object. Its zero value is a
// register holding 0, but registers used with internal/sim or internal/aware
// must be allocated from a Pool so they carry stable identifiers.
//
// A Register is 16 bytes, so four fit in one cache line: the value word
// first, then the identifier and an index into the process-wide name table.
type Register struct {
	v    atomic.Int64
	id   int32
	name int32
}

// ID returns the pool-assigned identifier of the register, or 0 for
// registers not allocated from a Pool.
func (r *Register) ID() int { return int(r.id) }

// Name returns the human-readable name given at allocation time.
func (r *Register) Name() string { return registerNames.lookup(r.name) }

// Load atomically reads the register. Algorithm code must use a Context
// instead so that the access is counted as a step; Load exists for
// schedulers, checkers, and tests that inspect memory out of band.
func (r *Register) Load() int64 { return r.v.Load() }

// Store atomically writes the register. See Load for when this is
// appropriate.
func (r *Register) Store(v int64) { r.v.Store(v) }

// CompareAndSwap atomically applies CAS semantics: if the register holds
// old, replace it with new and report true; otherwise leave it unchanged
// and report false. See Load for when this is appropriate.
func (r *Register) CompareAndSwap(old, new int64) bool {
	return r.v.CompareAndSwap(old, new)
}

// String implements fmt.Stringer for diagnostics.
func (r *Register) String() string {
	if r.name == 0 {
		return fmt.Sprintf("reg#%d", r.id)
	}
	return fmt.Sprintf("%s#%d", r.Name(), r.id)
}

// nameTable interns register names, so a Register stores a 4-byte index
// instead of a string header. It is process-wide and append-only: names
// are static strings or "base[i]", so it stays bounded however many pools
// are built. Index 0 is the empty name.
type nameTable struct {
	mu    sync.Mutex
	ids   map[string]int32         // guarded by mu
	names atomic.Pointer[[]string] // grows under mu; published entries never change

	// recent caches one lookup per slot, chosen by the address of the
	// name's bytes. Objects name their registers from a few string
	// constants, so builds mostly hit here: without a lock, and with a
	// cache miss or two where the map costs several once a workload has
	// evicted it between builds.
	recent [1 << 4]atomic.Pointer[internedName] // indexed by the top 4 hash bits
}

type internedName struct {
	name string
	id   int32
}

var registerNames = newNameTable()

func newNameTable() *nameTable {
	t := &nameTable{ids: map[string]int32{"": 0}}
	t.names.Store(&[]string{""})
	return t
}

// intern returns the index of name, adding it on first use.
func (t *nameTable) intern(name string) int32 {
	// Fibonacci hashing of the bytes address: string constants sit a
	// few bytes apart, and the top bits still tell them apart.
	slot := &t.recent[uint64(uintptr(unsafe.Pointer(unsafe.StringData(name))))*0x9E3779B97F4A7C15>>60]
	if e := slot.Load(); e != nil && e.name == name {
		return e.id
	}
	t.mu.Lock()
	id, ok := t.ids[name]
	if !ok {
		names := append(*t.names.Load(), name)
		id = int32(len(names) - 1)
		t.names.Store(&names)
		t.ids[name] = id
	}
	t.mu.Unlock()
	slot.Store(&internedName{name, id})
	return id
}

func (t *nameTable) lookup(id int32) string { return (*t.names.Load())[id] }

// CacheLineSize is the coherence granularity the padded allocation mode
// targets: 64 bytes on every platform this repository runs on (x86-64,
// arm64).
const CacheLineSize = 64

// lineRegisters is how many registers one cache line holds.
const lineRegisters = CacheLineSize / int(unsafe.Sizeof(Register{}))

// cacheLine is an arena cell: the registers of one 64-byte line. New
// starts a fresh line at slot 0 and leaves the rest empty, so tree
// siblings allocated back to back never false-share; NewNear fills the
// empty slots.
type cacheLine [lineRegisters]Register

// arenaChunk is how many lines each arena allocation holds: 4 KiB, which
// the Go allocator places on a 4 KiB boundary, so every cell starts a
// line. Chunking keeps the registers of one object contiguous (good for
// the heatmap and for prefetching) without per-register allocator
// overhead.
const arenaChunk = 64

// Pool allocates registers with dense, stable identifiers. The identifiers
// index the familiarity-set tables kept by internal/aware, so every register
// an algorithm uses must come from the pool handed to its constructor.
//
// A pool built with NewPadded serves registers from a cache-line arena. New
// gives each register a 64-byte line of its own, so hot tree siblings
// (Algorithm A nodes, f-array leaves) never false-share. NewNear shares a
// line on purpose, for registers that every operation touches together.
// Identifiers are identical in both modes — padding is invisible to
// internal/aware and the observability heatmap.
//
// Pool is safe for concurrent allocation, though well-behaved algorithms
// allocate all their registers at construction time.
type Pool struct {
	mu sync.Mutex
	// regs holds every register ever allocated; live counts how many of
	// them belong to the current cycle (live == len(regs) unless Reset has
	// been called). Registers beyond live are dead storage waiting to be
	// reissued by New or NewNear.
	regs []*Register
	live int
	// chunk is a padded pool's current arena chunk, and started counts
	// the lines New has started in it. (A pointer and a count rather than
	// a slice keep Pool at 80 bytes: one size class up, building a facade
	// object right after a GC measured about 9% slower.)
	chunk *[arenaChunk]cacheLine
	// lastName and lastID cache the pool's most recent name lookup: most
	// objects name their registers alike.
	lastName string
	lastID   int32
	started  int32
	padded   bool
	// misaligned records a chunk that does not start a cache line, which
	// the Go allocator never produces for 4 KiB objects; NewNear then
	// stops sharing, because it finds a register's line by its address.
	misaligned bool
}

// NewPool returns an empty register pool allocating unpadded registers.
func NewPool() *Pool { return &Pool{} }

// NewPadded returns an empty register pool whose registers are allocated
// from cache-line arenas: New starts each register on a fresh 64-byte line.
// This is the allocation mode of the native (public API) backend; the
// simulator and the step-counting experiments use NewPool, where spatial
// layout cannot matter.
func NewPadded() *Pool { return &Pool{padded: true} }

// Padded reports whether the pool allocates cache-line-padded registers.
func (p *Pool) Padded() bool { return p.padded }

// New allocates a register initialized to init. The name is used only for
// diagnostics and need not be unique.
func (p *Pool) New(name string, init int64) *Register {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.live < len(p.regs) {
		return p.reissue(name, init)
	}
	return p.issue(p.fresh(), name, init)
}

// NewNear allocates a register initialized to init on the cache line of
// near, an earlier register of this pool, so that one line transfer moves
// both. Use it only for registers every operation touches together: any
// other sharing is false sharing. It falls back to New when the pool is
// unpadded, when near comes from another pool, and when near's line is
// full. Identifiers stay in allocation order, as with New.
func (p *Pool) NewNear(near *Register, name string, init int64) *Register {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.live < len(p.regs) {
		return p.reissue(name, init)
	}
	if p.padded && !p.misaligned && p.owns(near) {
		// near sits in a cacheLine cell of an arena chunk. New started
		// that line at slot 0, so an empty slot is one whose id is
		// still 0.
		line := (*cacheLine)(unsafe.Add(unsafe.Pointer(near), -int(uintptr(unsafe.Pointer(near))%CacheLineSize)))
		for k := 1; k < lineRegisters; k++ {
			if line[k].id == 0 {
				return p.issue(&line[k], name, init)
			}
		}
	}
	return p.issue(p.fresh(), name, init)
}

// fresh returns unissued storage: slot 0 of a new line in a padded pool.
// Callers hold p.mu.
func (p *Pool) fresh() *Register {
	if !p.padded {
		return &Register{}
	}
	if p.chunk == nil || p.started == arenaChunk {
		p.chunk, p.started = new([arenaChunk]cacheLine), 0
		p.misaligned = p.misaligned || uintptr(unsafe.Pointer(p.chunk))%CacheLineSize != 0
	}
	p.started++
	return &p.chunk[p.started-1][0]
}

// owns reports whether r was allocated from p. Callers hold p.mu.
func (p *Pool) owns(r *Register) bool {
	return r != nil && int(r.id) < len(p.regs) && p.regs[r.id] == r
}

// reissue returns the next register of a pre-Reset cycle — same storage,
// same identifier, re-initialized as if freshly allocated. Callers hold
// p.mu and have checked that one is left.
func (p *Pool) reissue(name string, init int64) *Register {
	r := p.regs[p.live]
	if registerNames.lookup(r.name) != name {
		// A deterministic builder reissues every register under its old
		// name, so this is rare.
		r.name = p.intern(name)
	}
	r.v.Store(init)
	p.live++
	return r
}

// issue gives r the next identifier. Callers hold p.mu.
func (p *Pool) issue(r *Register, name string, init int64) *Register {
	r.id = int32(len(p.regs))
	r.name = p.intern(name)
	r.v.Store(init)
	p.regs = append(p.regs, r)
	p.live++
	return r
}

// intern resolves name through the pool's one-entry cache. Callers hold
// p.mu.
func (p *Pool) intern(name string) int32 {
	if name != p.lastName {
		p.lastName, p.lastID = name, registerNames.intern(name)
	}
	return p.lastID
}

// Reset empties the pool for reuse: registers allocated after the call
// reuse the storage — and, because allocation order determines identifiers,
// the identifiers — of the registers allocated before it, in order. A
// deterministic builder therefore sees a bit-identical pool cycle after
// cycle without reallocating, which is what the exploration engine's replay
// reuse (sim.Recycler) relies on.
//
// The caller must guarantee nothing still references the pre-Reset
// registers: their values are overwritten as they are reissued.
func (p *Pool) Reset() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.live = 0
}

// NewSlice allocates n registers sharing a name prefix, all initialized to
// init.
func (p *Pool) NewSlice(name string, n int, init int64) []*Register {
	regs := make([]*Register, n)
	for i := range regs {
		regs[i] = p.New(fmt.Sprintf("%s[%d]", name, i), init)
	}
	return regs
}

// Len reports the number of registers allocated so far (in the current
// cycle, if Reset has been called).
func (p *Pool) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.live
}

// Registers returns a snapshot of all registers allocated so far, in
// allocation (= identifier) order.
func (p *Pool) Registers() []*Register {
	p.mu.Lock()
	defer p.mu.Unlock()

	out := make([]*Register, p.live)
	copy(out, p.regs[:p.live])
	return out
}

// Get returns the register with the given identifier. It panics with a
// descriptive message if no such register was allocated from this pool.
func (p *Pool) Get(id int) *Register {
	p.mu.Lock()
	defer p.mu.Unlock()
	if id < 0 || id >= p.live {
		panic(fmt.Sprintf("primitive: Pool.Get(%d): no such register (pool holds ids [0, %d))", id, p.live))
	}
	return p.regs[id]
}

// Context is the capability through which a process applies primitives to
// base objects. Each method call is exactly one step in the paper's
// complexity accounting.
//
// A Context belongs to a single process: implementations are not required
// to be safe for use from multiple goroutines.
type Context interface {
	// ID returns the identifier of the process owning this context.
	// Process identifiers are in [0, N) for an N-process system.
	ID() int

	// Read applies the read primitive and returns the register's value.
	Read(r *Register) int64

	// Write applies the write primitive.
	Write(r *Register, v int64)

	// CAS applies compare-and-swap: if r holds old it is set to new and
	// CAS reports true; otherwise r is unchanged and CAS reports false.
	CAS(r *Register, old, new int64) bool
}

// Direct is the native Context: primitives compile to bare sync/atomic
// operations with no extra bookkeeping. It is the backend used by the public
// API and the throughput benchmarks.
type Direct struct {
	id int
}

var _ Context = Direct{}

// NewDirect returns a native context for process id.
func NewDirect(id int) Direct { return Direct{id: id} }

// ID implements Context.
func (d Direct) ID() int { return d.id }

// Read implements Context.
func (d Direct) Read(r *Register) int64 { return r.v.Load() }

// Write implements Context.
func (d Direct) Write(r *Register, v int64) { r.v.Store(v) }

// CAS implements Context.
func (d Direct) CAS(r *Register, old, new int64) bool {
	return r.v.CompareAndSwap(old, new)
}
