package solvers

import (
	"runtime"
	"testing"
	"time"

	"odinhpc/internal/comm"
	"odinhpc/internal/tpetra"
)

// krylovBenchIters caps each benchmarked solve; the tolerance is out of
// reach, so every solve runs exactly this many iterations.
const krylovBenchIters = 32

// BenchmarkKrylovIteration times Krylov iterations at the size odinserve
// serves: Laplace1D with n=256 over two in-process ranks, no
// preconditioner. One op is one solve of krylovBenchIters iterations, so
// ns/iter carries the set-up amortized over them. allreduces/iter and
// exec-calls/iter (per rank) are exact, from a MaxIter 2 minus MaxIter 1
// probe. allocs/iter counts heap allocations over both ranks, set-up
// amortized like ns/iter.
func BenchmarkKrylovIteration(b *testing.B) {
	for _, s := range []struct {
		name           string
		solve          krylovSolver
		appliesPerIter int
	}{{"cg", CG, 1}, {"bicgstab", BiCGSTAB, 2}} {
		b.Run(s.name, func(b *testing.B) {
			counts, err := countIterations(s.solve, s.appliesPerIter, false)
			if err != nil {
				b.Fatal(err)
			}
			var elapsed time.Duration
			var before, after runtime.MemStats
			err = comm.Run(2, func(c *comm.Comm) error {
				a, rhs, _ := manufactured(c, 256)
				x := tpetra.NewVector(c, a.Map())
				opt := Options{MaxIter: krylovBenchIters, Tol: 1e-300}
				if c.Rank() == 0 {
					runtime.ReadMemStats(&before)
				}
				c.Barrier()
				t0 := time.Now()
				for i := 0; i < b.N; i++ {
					x.PutScalar(0)
					if _, err := s.solve(a, rhs, x, opt); err != nil {
						return err
					}
				}
				if c.Rank() == 0 {
					elapsed = time.Since(t0)
				}
				c.Barrier()
				if c.Rank() == 0 {
					runtime.ReadMemStats(&after)
				}
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
			iters := float64(b.N * krylovBenchIters)
			b.ReportMetric(float64(elapsed.Nanoseconds())/iters, "ns/iter")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/iters, "allocs/iter")
			b.ReportMetric(float64(counts.iterAllreduces), "allreduces/iter")
			b.ReportMetric(counts.execPerIter, "exec-calls/iter")
		})
	}
}
