package exec

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"testing"
)

func TestParallelForCoversEveryIndexOnce(t *testing.T) {
	for _, w := range []int{1, 2, 4, 7} {
		for _, n := range []int{0, 1, 5, DefaultGrain - 1, DefaultGrain + 1, 3*DefaultGrain + 17} {
			e := New(WithWorkers(w))
			hits := make([]int32, n)
			e.ParallelFor(n, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&hits[i], 1)
				}
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("w=%d n=%d: index %d visited %d times", w, n, i, h)
				}
			}
		}
	}
}

func TestParallelForSerialIsSingleSpan(t *testing.T) {
	e := New(WithWorkers(1))
	var spans [][2]int
	e.ParallelFor(100_000, func(lo, hi int) { spans = append(spans, [2]int{lo, hi}) }) //lint:allow hotalloc Collecting the spans is the point of this test
	if len(spans) != 1 || spans[0] != [2]int{0, 100_000} {
		t.Fatalf("one-worker engine must run one [0,n) span, got %v", spans)
	}
}

func TestChunkingIndependentOfWorkers(t *testing.T) {
	for _, n := range []int{1, DefaultGrain, DefaultGrain*maxChunks + 1, 1 << 22} {
		s1, c1 := New(WithWorkers(1)).chunking(n)
		s7, c7 := New(WithWorkers(7)).chunking(n)
		if s1 != s7 || c1 != c7 {
			t.Fatalf("n=%d: chunking differs by workers: (%d,%d) vs (%d,%d)", n, s1, c1, s7, c7)
		}
		if c1 > maxChunks {
			t.Fatalf("n=%d: %d chunks exceeds cap %d", n, c1, maxChunks)
		}
		if c1*s1 < n {
			t.Fatalf("n=%d: chunks %d x size %d fail to cover", n, c1, s1)
		}
	}
}

func TestParallelReduceSum(t *testing.T) {
	n := 123_457
	want := n * (n - 1) / 2
	for _, w := range []int{1, 2, 4, 7} {
		e := New(WithWorkers(w), WithGrain(1000))
		got := ParallelReduce(e, n, func(lo, hi int) int {
			s := 0
			for i := lo; i < hi; i++ {
				s += i
			}
			return s
		}, func(a, b int) int { return a + b })
		if got != want {
			t.Fatalf("w=%d: sum = %d, want %d", w, got, want)
		}
	}
}

func TestParallelReduceEmptyUsesEmptyFold(t *testing.T) {
	e := New(WithWorkers(4))
	got := ParallelReduce(e, 0, func(lo, hi int) int {
		if lo != 0 || hi != 0 {
			t.Fatalf("empty reduce folded [%d,%d)", lo, hi) //lint:allow hotalloc Failure path only
		}
		return -7
	}, func(a, b int) int { return a + b })
	if got != -7 {
		t.Fatalf("empty reduce = %d, want fold(0,0) = -7", got)
	}
}

// Reduce results must be bitwise reproducible across pool sizes >= 2 even
// for a non-associative combine (floating-point addition stands in here via
// a combine that records association order).
func TestReduceTreeOrderIndependentOfWorkers(t *testing.T) {
	n := 40 * 1000
	shape := func(w int) string {
		e := New(WithWorkers(w), WithGrain(1000))
		return ParallelReduce(e, n, func(lo, hi int) string {
			return fmt.Sprintf("[%d,%d)", lo, hi) //lint:allow hotalloc Recording the combine shape is the point of this test
		}, func(a, b string) string { return "(" + a + "+" + b + ")" })
	}
	ref := shape(2)
	for _, w := range []int{3, 4, 7, 16} {
		if s := shape(w); s != ref {
			t.Fatalf("combine tree changed with workers=%d:\n%s\nvs\n%s", w, s, ref)
		}
	}
}

func TestPanicPropagatesWithOriginalValue(t *testing.T) {
	for _, w := range []int{1, 4} {
		e := New(WithWorkers(w), WithGrain(10))
		func() {
			defer func() {
				r := recover()
				if r != "dense: index 3 out of range" {
					t.Fatalf("w=%d: recovered %v, want original panic value", w, r)
				}
			}()
			e.ParallelFor(1000, func(lo, hi int) {
				if lo == 0 {
					panic("dense: index 3 out of range")
				}
			})
			t.Fatalf("w=%d: ParallelFor did not panic", w)
		}()
	}
}

func TestLowestChunkPanicWins(t *testing.T) {
	e := New(WithWorkers(4), WithGrain(10))
	defer func() {
		if r := recover(); r != "chunk0" {
			t.Fatalf("recovered %v, want lowest-chunk panic value chunk0", r)
		}
	}()
	e.ParallelFor(1000, func(lo, hi int) {
		panic(fmt.Sprintf("chunk%d", lo/10)) //lint:allow hotalloc Panic path only
	})
	t.Fatal("ParallelFor did not panic")
}

func TestHookAndSnapshot(t *testing.T) {
	var calls []Call
	var mu sync.Mutex
	e := New(WithWorkers(4), WithGrain(100), WithHook(func(c Call) {
		mu.Lock()
		calls = append(calls, c)
		mu.Unlock()
	}))
	e.ParallelFor(1000, func(lo, hi int) {})
	ParallelReduce(e, 50, func(lo, hi int) int { return hi - lo }, func(a, b int) int { return a + b })
	if len(calls) != 2 {
		t.Fatalf("hook fired %d times, want 2", len(calls))
	}
	if calls[0].Kind != "for" || calls[0].N != 1000 || calls[0].Chunks != 10 {
		t.Fatalf("for call = %+v", calls[0])
	}
	if calls[1].Kind != "reduce" || calls[1].Chunks != 1 || calls[1].Workers != 1 {
		t.Fatalf("reduce call = %+v (n below grain must run serial)", calls[1])
	}
	s := e.Snapshot()
	if s.Calls != 2 || s.Chunks != 11 || s.Items != 1050 {
		t.Fatalf("snapshot = %+v", s)
	}
}

// The default engine is shared by every simulated MPI rank; hammer one
// engine from many goroutines so `go test -race` certifies it.
func TestConcurrentUseAcrossRanks(t *testing.T) {
	e := New(WithWorkers(3), WithGrain(64))
	var wg sync.WaitGroup
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			for iter := 0; iter < 20; iter++ {
				n := 1000 + rank*37 + iter
				got := ParallelReduce(e, n, func(lo, hi int) int { return hi - lo },
					func(a, b int) int { return a + b })
				if got != n {
					t.Errorf("rank %d: coverage %d, want %d", rank, got, n)
					return
				}
			}
		}(r)
	}
	wg.Wait()
}

// TestStripedCountersExact drives one engine from 8 goroutines, each
// issuing K serial and K chunked calls of both kinds, while a poller takes
// snapshots. The counters are striped across cache lines, so Snapshot is a
// sum over stripes: the final Calls/Chunks/Items totals must still be
// exact, and no snapshot may see Nanos (or Calls) go backwards.
func TestStripedCountersExact(t *testing.T) {
	const (
		goroutines = 8
		k          = 200
		grain      = 64
		serialN    = grain - 1 // one chunk
		chunkedN   = 5*grain + 3
	)
	e := New(WithWorkers(2), WithGrain(grain))
	_, chunkedCount := e.chunking(chunkedN)
	stop := make(chan struct{})
	polled := make(chan error, 1)
	go func() {
		var prev Stats
		for {
			s := e.Snapshot()
			if s.Nanos < prev.Nanos || s.Calls < prev.Calls {
				polled <- fmt.Errorf("snapshot went backwards: %+v after %+v", s, prev)
				return
			}
			prev = s
			select {
			case <-stop:
				polled <- nil
				return
			default:
			}
		}
	}()
	sum := func(a, b int) int { return a + b }
	span := func(lo, hi int) int { return hi - lo }
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < k; i++ {
				e.ParallelFor(serialN, func(lo, hi int) {})
				e.ParallelFor(chunkedN, func(lo, hi int) {})
				ParallelReduce(e, serialN, span, sum)
				ParallelReduce(e, chunkedN, span, sum)
			}
		}()
	}
	wg.Wait()
	close(stop)
	if err := <-polled; err != nil {
		t.Fatal(err)
	}
	got := e.Snapshot()
	per := int64(goroutines * k * 2) // calls of each size, both kinds
	want := Stats{
		Calls:  2 * per,
		Chunks: per * int64(1+chunkedCount),
		Items:  per * (serialN + chunkedN),
	}
	if got.Calls != want.Calls || got.Chunks != want.Chunks || got.Items != want.Items {
		t.Fatalf("snapshot = %+v, want Calls %d Chunks %d Items %d", got, want.Calls, want.Chunks, want.Items)
	}
	if got.Nanos <= 0 {
		t.Fatalf("Nanos = %d after %d calls, want > 0", got.Nanos, got.Calls)
	}
}

func TestDefaultEngineKnobs(t *testing.T) {
	old := Default()
	defer SetDefault(old)
	SetDefaultWorkers(5)
	if w := Default().Workers(); w != 5 {
		t.Fatalf("SetDefaultWorkers(5): Workers() = %d", w)
	}
	SetDefaultWorkers(0)
	if w := Default().Workers(); w != 1 {
		t.Fatalf("SetDefaultWorkers(0) must clamp to 1, got %d", w)
	}
}

func TestEnvThreadsDefault(t *testing.T) {
	old, had := os.LookupEnv(EnvThreads)
	os.Setenv(EnvThreads, "6")
	defer func() {
		if had {
			os.Setenv(EnvThreads, old)
		} else {
			os.Unsetenv(EnvThreads)
		}
	}()
	if w := New().Workers(); w != 6 {
		t.Fatalf("ODINHPC_THREADS=6: New().Workers() = %d", w)
	}
	if w := New(WithWorkers(2)).Workers(); w != 2 {
		t.Fatalf("explicit WithWorkers must beat the env, got %d", w)
	}
}
