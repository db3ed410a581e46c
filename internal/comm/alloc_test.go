package comm

import (
	"fmt"
	"runtime"
	"testing"

	"odinhpc/internal/trace"
)

// allocSlack is the allowance per call on top of each budget below for
// allocations the runtime makes in the background while the window is
// open (the barriers closing the window, timers, GC bookkeeping). It is
// under one, so a single allocation per call brought back still fails.
const allocSlack = 0.5

// mallocsPerCall runs op calls times on both ranks of a P=2 inproc
// session between barriers and returns the process-wide heap allocations
// per call, summed over both ranks. One warm-up call first grows the
// mailbox queues to their steady capacity.
func mallocsPerCall(t *testing.T, calls int, op func(c *Comm)) float64 {
	t.Helper()
	var before, after runtime.MemStats
	_, err := RunConfig(2, Config{Transport: "inproc"}, func(c *Comm) error {
		op(c)
		c.Barrier()
		if c.Rank() == 0 {
			runtime.ReadMemStats(&before)
		}
		c.Barrier()
		for i := 0; i < calls; i++ {
			op(c)
		}
		c.Barrier()
		if c.Rank() == 0 {
			runtime.ReadMemStats(&after)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return float64(after.Mallocs-before.Mallocs) / float64(calls)
}

// TestCollectiveAllocationBudget pins the heap allocations of the
// collectives on the served Krylov path, per call over both ranks of a P=2
// inproc session. Each send copies its payload once and boxes the copy
// once (2 allocations), and a collective reuses the buffers it receives:
// Allreduce is one send each way (4); Alltoall with one value each way is
// one send, the result slice and the local block per rank (8). A
// regression to boxing the caller's slice, heap frames, or fresh
// accumulators shows up here as whole allocations per call.
func TestCollectiveAllocationBudget(t *testing.T) {
	if trace.Active() != nil {
		t.Skip("tracing allocates a span closure per collective")
	}
	const calls = 2000
	vec := []float64{1, 2, 3, 4}
	parts := [][]int{{1}, {2}}
	for _, tc := range []struct {
		name   string
		budget float64
		op     func(c *Comm)
	}{
		{"AllreduceScalar", 4, func(c *Comm) { _ = AllreduceScalar(c, float64(c.Rank()), OpSum) }},
		{"Allreduce4", 4, func(c *Comm) { _ = Allreduce(c, vec, OpSum) }},
		{"Alltoall1", 8, func(c *Comm) { _ = Alltoall(c, parts) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := mallocsPerCall(t, calls, tc.op)
			t.Logf("%s: %.3f allocations per call (budget %v + %v slack)", tc.name, got, tc.budget, allocSlack)
			if got > tc.budget+allocSlack {
				t.Errorf("%s allocates %.3f objects per call over both ranks, want <= %v (+%v slack)",
					tc.name, got, tc.budget, allocSlack)
			}
		})
	}
}

// TestCollectiveAliasingContract pins the ownership promises that buffer
// reuse inside the collectives could break, at P=1..4 on both transports:
// Reduce never writes its input, and no returned result aliases the
// caller's input — including at P=1, where root never receives and the
// result must still be a fresh copy. Bcast keeps its in-place contract.
// Every rank calls the same collectives in the same order whatever it
// finds, so an error on one rank never strands its peers.
func TestCollectiveAliasingContract(t *testing.T) {
	for _, tr := range []string{"inproc", "tcp"} {
		for p := 1; p <= 4; p++ {
			t.Run(fmt.Sprintf("%s/P%d", tr, p), func(t *testing.T) {
				_, err := RunConfig(p, Config{Transport: tr}, func(c *Comm) error {
					var errs []error
					fail := func(format string, args ...any) {
						errs = append(errs, fmt.Errorf("rank %d: "+format, append([]any{c.Rank()}, args...)...))
					}
					in := []float64{float64(c.Rank() + 1), 10}
					orig := append([]float64(nil), in...)
					unchanged := func(op string) {
						for i := range in {
							if in[i] != orig[i] {
								fail("%s wrote its input: in = %v, want %v", op, in, orig)
								return
							}
						}
					}
					aliases := func(a, b []float64) bool { return len(a) > 0 && len(b) > 0 && &a[0] == &b[0] }
					// sum is the element-wise sum over ranks of in.
					sum := []float64{float64(p*(p+1)) / 2, float64(10 * p)}

					for root := 0; root < p; root++ {
						res := Reduce(c, root, in, OpSum)
						unchanged("Reduce")
						if c.Rank() != root {
							if res != nil {
								fail("Reduce returned %v off root %d, want nil", res, root)
							}
							continue
						}
						if aliases(res, in) {
							fail("Reduce result at root %d aliases the input", root)
						}
						if len(res) != len(sum) || res[0] != sum[0] || res[1] != sum[1] {
							fail("Reduce at root %d = %v, want %v", root, res, sum)
						}
						// The result is the caller's: scribbling on it must not reach in.
						res[0] = -1
						unchanged("writing Reduce's result")
					}

					res := Allreduce(c, in, OpSum)
					unchanged("Allreduce")
					if aliases(res, in) {
						fail("Allreduce result aliases the input")
					}
					if len(res) != len(sum) || res[0] != sum[0] || res[1] != sum[1] {
						fail("Allreduce = %v, want %v", res, sum)
					}
					res[1] = -1
					unchanged("writing Allreduce's result")
					if again := Allreduce(c, in, OpSum); again[1] != sum[1] {
						fail("second Allreduce = %v, want %v", again, sum)
					}

					for root := 0; root < p; root++ {
						buf := []float64{-1, -1}
						if c.Rank() == root {
							copy(buf, in)
						}
						Bcast(c, root, buf)
						want := float64(root + 1)
						if buf[0] != want || buf[1] != 10 {
							fail("Bcast from %d = %v, want [%v 10]", root, buf, want)
						}
					}
					if len(errs) > 0 {
						return errs[0]
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}
