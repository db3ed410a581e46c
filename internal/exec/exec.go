// Package exec is the single intra-rank parallel execution engine under
// every element-wise kernel in the repository. The paper claims ODIN ufuncs
// and fused array expressions "parallelize trivially" (§III.D); this package
// is where that parallelism actually lives. Dense ufuncs and reductions,
// the fusion evaluator, CSR sparse matrix-vector products, and the local
// parts of tpetra Vector operations all route their hot loops through one
// Engine instead of each carrying a private serial `for` loop.
//
// Design constraints, in order:
//
//  1. Determinism. Chunk boundaries are a pure function of the problem size
//     and the engine's grain — never of the worker count or of scheduling.
//     ParallelFor results are therefore bitwise identical for every pool
//     size. ParallelReduce combines per-chunk partials in a fixed pairwise
//     tree ordered by chunk index, so its result is bitwise reproducible
//     run-to-run and across every pool size >= 2; only the serial (one
//     worker / one chunk) fold can differ, by ordinary floating-point
//     reassociation.
//  2. Exact serial semantics at pool size 1. A one-worker engine executes
//     the caller's body as one [0,n) span — the same loop, in the same
//     order, as the code it replaced. Tests run serially unless they opt
//     in (via WithWorkers, SetDefaultWorkers, or ODINHPC_THREADS).
//  3. Panics propagate. A panic in a chunk body is re-raised on the calling
//     goroutine with its original value, so the dense layer's shape/index
//     panic messages reach the user intact. When several chunks panic, the
//     one with the lowest chunk index wins — again for determinism.
//
// Intra-rank worker parallelism composes with inter-rank parallelism: each
// simulated MPI rank (a goroutine under internal/comm) calls into the same
// process-wide default Engine, so P ranks x W workers coexist in one
// process. The engine holds no locks while chunk bodies run and is safe for
// concurrent use from any number of ranks.
package exec

import (
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"odinhpc/internal/trace"
)

// DefaultGrain is the minimum number of items per chunk. Element-wise work
// items cost nanoseconds; a few thousand of them amortize the scheduling
// cost of a chunk while still leaving enough chunks to balance load.
const DefaultGrain = 4096

// maxChunks bounds the chunk count for huge inputs so that per-chunk
// bookkeeping (reduce partials, stats) stays O(1)-ish in n. It is a fixed
// constant — never derived from the worker count — to keep chunk boundaries
// deterministic.
const maxChunks = 256

// EnvThreads is the environment variable consulted for the default pool
// size when no explicit option is given ("ODIN_NUM_THREADS" analog).
const EnvThreads = "ODINHPC_THREADS"

// Call describes one engine invocation, delivered to the instrumentation
// hook after the call completes.
type Call struct {
	Kind    string // "for" or "reduce"
	N       int    // total items
	Chunks  int    // chunks the span was split into (1 = serial)
	Workers int    // workers that participated
	Nanos   int64  // wall time of the whole call
}

// Stats is a cumulative snapshot of an engine's activity.
type Stats struct {
	Calls  int64 // engine invocations
	Chunks int64 // chunks executed
	Items  int64 // items covered
	Nanos  int64 // summed wall time of calls
}

// Engine is a chunked worker pool. It is immutable after construction and
// safe for concurrent use; the zero value is not useful — construct with
// New.
type Engine struct {
	workers int
	grain   int
	hook    func(Call)

	// stripes holds the instrumentation counters, spread so that ranks on
	// different cores rarely share a cache line; Snapshot sums them.
	stripes [numStripes]counterStripe
}

// numStripes is the number of counter stripes per engine, a power of two
// so the stripe hash can take the top stripeBits bits.
const (
	stripeBits = 4
	numStripes = 1 << stripeBits
)

// counterStripe is one cache-line-isolated set of counters. At 128 bytes
// per stripe, the counters of two stripes never share a 64-byte line,
// whatever the alignment of the array.
type counterStripe struct {
	calls  atomic.Int64
	chunks atomic.Int64
	items  atomic.Int64
	nanos  atomic.Int64
	_      [128 - 4*8]byte
}

// stripe picks the calling goroutine's counter stripe by hashing an address
// on its stack. Goroutine stacks are disjoint, so one goroutine (a rank)
// keeps hitting the same stripe while goroutines on other cores mostly land
// on others. The choice affects only contention, never the totals.
func (e *Engine) stripe() *counterStripe {
	var probe byte
	h := uint64(uintptr(unsafe.Pointer(&probe))>>10) * 0x9e3779b97f4a7c15
	return &e.stripes[h>>(64-stripeBits)]
}

// epoch anchors the engine clock: time.Since on a monotonic epoch reads the
// monotonic clock only, where time.Now reads the wall clock as well.
var epoch = time.Now()

// now returns monotonic nanoseconds since epoch.
func now() int64 { return int64(time.Since(epoch)) }

// Option configures an Engine at construction.
type Option func(*Engine)

// WithWorkers fixes the pool size. Values below 1 are clamped to 1.
func WithWorkers(n int) Option {
	return func(e *Engine) {
		if n < 1 {
			n = 1
		}
		e.workers = n
	}
}

// WithGrain sets the minimum chunk size in items. Values below 1 are
// clamped to 1. The grain participates in chunk-boundary determinism: two
// engines with the same grain chunk identically regardless of pool size.
func WithGrain(n int) Option {
	return func(e *Engine) {
		if n < 1 {
			n = 1
		}
		e.grain = n
	}
}

// WithHook installs a per-call instrumentation hook. It runs on the calling
// goroutine after each ParallelFor/ParallelReduce completes and must not
// call back into the same engine.
func WithHook(f func(Call)) Option {
	return func(e *Engine) { e.hook = f }
}

// New returns an engine. Without WithWorkers the pool size comes from
// ODINHPC_THREADS if set, else runtime.GOMAXPROCS(0).
func New(opts ...Option) *Engine {
	e := &Engine{workers: defaultWorkers(), grain: DefaultGrain}
	for _, o := range opts {
		o(e)
	}
	return e
}

func defaultWorkers() int {
	if s := os.Getenv(EnvThreads); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n >= 1 {
			return n
		}
	}
	return runtime.GOMAXPROCS(0)
}

// Workers returns the pool size.
func (e *Engine) Workers() int { return e.workers }

// Grain returns the minimum chunk size.
func (e *Engine) Grain() int { return e.grain }

// Snapshot returns the cumulative instrumentation counters. Each counter
// is exact for every call that completed before Snapshot began.
func (e *Engine) Snapshot() Stats {
	var st Stats
	for i := range e.stripes {
		s := &e.stripes[i]
		st.Calls += s.calls.Load()
		st.Chunks += s.chunks.Load()
		st.Items += s.items.Load()
		st.Nanos += s.nanos.Load()
	}
	return st
}

// chunking returns the chunk size and count for n items. It depends only on
// n and the grain — never on the worker count — so chunk boundaries are
// identical for every pool size.
func (e *Engine) chunking(n int) (size, count int) {
	size = e.grain
	if c := (n + size - 1) / size; c > maxChunks {
		size = (n + maxChunks - 1) / maxChunks
	}
	count = (n + size - 1) / size
	return size, count
}

// record updates counters and fires the hook. start is a now() reading.
func (e *Engine) record(kind string, n, chunks, workers int, start int64) {
	ns := now() - start
	s := e.stripe()
	s.calls.Add(1)
	s.chunks.Add(int64(chunks))
	s.items.Add(int64(n))
	s.nanos.Add(ns)
	if e.hook != nil {
		e.hook(Call{Kind: kind, N: n, Chunks: chunks, Workers: workers, Nanos: ns})
	}
}

// chunkPanic carries a chunk body's panic value back to the caller.
type chunkPanic struct {
	chunk int
	val   any
}

// runChunks executes body(w, c) for every chunk index in [0, count) on up
// to e.workers goroutines (the caller participates as worker 0). Chunks are
// claimed dynamically — assignment never affects results because outputs
// are keyed by chunk index; the worker id is passed through purely for
// instrumentation (the trace layer's per-worker sub-lanes). The
// lowest-chunk panic, if any, is re-raised on the calling goroutine with
// its original value.
func (e *Engine) runChunks(count int, body func(w, c int)) {
	workers := e.workers
	if workers > count {
		workers = count
	}
	var next atomic.Int64
	var mu sync.Mutex
	var caught *chunkPanic
	work := func(w int) {
		for {
			c := int(next.Add(1)) - 1
			if c >= count {
				return
			}
			func() {
				defer func() {
					if r := recover(); r != nil {
						mu.Lock()
						if caught == nil || c < caught.chunk {
							caught = &chunkPanic{chunk: c, val: r}
						}
						mu.Unlock()
					}
				}()
				body(w, c)
			}()
		}
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for i := 1; i < workers; i++ {
		go func(w int) {
			defer wg.Done()
			work(w)
		}(i)
	}
	work(0)
	wg.Wait()
	if caught != nil {
		panic(caught.val)
	}
}

// traceChunk records one chunk execution on the trace layer's process lane
// (the engine is shared by every rank, so chunks carry worker attribution,
// not rank attribution; rank-attributed spans come from the layers calling
// into the engine). s is non-nil by contract; the caller already holds the
// single-atomic-load disabled check.
func traceChunk(s *trace.Session, kind string, w, lo, hi int, t0 int64) {
	s.Emit(trace.Event{Kind: trace.KindChunk, Rank: -1, Worker: int32(w),
		Peer: -1, Tag: -1, Start: t0, Dur: s.Now() - t0,
		A: int64(lo), B: int64(hi), Label: kind})
}

// ParallelFor runs body over the half-open spans that partition [0, n).
// With one worker (or one chunk) it is exactly `body(0, n)`; otherwise the
// spans execute concurrently. Spans are disjoint, so body may write to
// span-indexed outputs without synchronization. Results must not depend on
// span execution order.
func (e *Engine) ParallelFor(n int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	start := now()
	size, count := e.chunking(n)
	if e.workers == 1 || count == 1 {
		if s := trace.Active(); s != nil {
			t0 := s.Now()
			body(0, n)
			traceChunk(s, "for", 0, 0, n, t0)
		} else {
			body(0, n)
		}
		e.record("for", n, 1, 1, start)
		return
	}
	e.runChunks(count, func(w, c int) {
		lo := c * size
		hi := lo + size
		if hi > n {
			hi = n
		}
		if s := trace.Active(); s != nil {
			t0 := s.Now()
			body(lo, hi)
			traceChunk(s, "for", w, lo, hi, t0)
			return
		}
		body(lo, hi)
	})
	workers := e.workers
	if workers > count {
		workers = count
	}
	e.record("for", n, count, workers, start)
}

// ParallelReduce folds the spans that partition [0, n) with fold and merges
// the per-span partials with combine in a fixed pairwise tree ordered by
// chunk index. With one worker (or one chunk) it is exactly `fold(0, n)` —
// the serial reference semantics. For n <= 0 it returns fold(0, 0), so
// folds must tolerate an empty span (reductions without an identity, such
// as Min, should reject empty input before calling).
//
// ParallelReduce is a free function because Go methods cannot introduce
// type parameters.
func ParallelReduce[A any](e *Engine, n int, fold func(lo, hi int) A, combine func(a, b A) A) A {
	if n <= 0 {
		return fold(0, 0)
	}
	start := now()
	size, count := e.chunking(n)
	if e.workers == 1 || count == 1 {
		var out A
		if s := trace.Active(); s != nil {
			t0 := s.Now()
			out = fold(0, n)
			traceChunk(s, "reduce", 0, 0, n, t0)
		} else {
			out = fold(0, n)
		}
		e.record("reduce", n, 1, 1, start)
		return out
	}
	partials := make([]A, count)
	e.runChunks(count, func(w, c int) {
		lo := c * size
		hi := lo + size
		if hi > n {
			hi = n
		}
		if s := trace.Active(); s != nil {
			t0 := s.Now()
			partials[c] = fold(lo, hi)
			traceChunk(s, "reduce", w, lo, hi, t0)
			return
		}
		partials[c] = fold(lo, hi)
	})
	// Pairwise tree combine in chunk-index order: ((p0+p1)+(p2+p3))+... —
	// the same association for every pool size and every run.
	for width := 1; width < count; width *= 2 {
		for i := 0; i+width < count; i += 2 * width {
			partials[i] = combine(partials[i], partials[i+width])
		}
	}
	workers := e.workers
	if workers > count {
		workers = count
	}
	e.record("reduce", n, count, workers, start)
	return partials[0]
}

// defaultEngine is the process-wide engine every kernel layer uses unless
// handed an explicit one.
var defaultEngine atomic.Pointer[Engine]

func init() {
	defaultEngine.Store(New())
}

// Default returns the process-wide engine.
func Default() *Engine { return defaultEngine.Load() }

// SetDefault replaces the process-wide engine. It panics on nil.
func SetDefault(e *Engine) {
	if e == nil {
		panic("exec: SetDefault(nil)")
	}
	defaultEngine.Store(e)
}

// SetDefaultWorkers replaces the process-wide engine with a fresh one of n
// workers (n < 1 is clamped to 1), preserving no counters. It is the knob
// command-line tools plumb their -threads flag to.
func SetDefaultWorkers(n int) {
	SetDefault(New(WithWorkers(n)))
}
