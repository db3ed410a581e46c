package solvers_test

// Chaos conformance of the distributed Krylov solvers: a full CG and
// BiCGSTAB solve — dozens of collectives plus halo exchanges per iteration —
// must converge to the bitwise-identical solution under comm-fabric
// perturbation, or fail with a typed comm.FaultError. This is the
// end-to-end gate: if any reduction tree, ghost exchange, or redistribution
// silently reordered arithmetic under faults, the iterate history would
// diverge immediately.

import (
	"testing"

	"odinhpc/internal/comm"
	"odinhpc/internal/comm/chaostest"
	"odinhpc/internal/distmap"
	"odinhpc/internal/galeri"
	"odinhpc/internal/precond"
	"odinhpc/internal/solvers"
	"odinhpc/internal/tpetra"
)

func TestChaosSolvers(t *testing.T) {
	const n = 24
	setup := func(c *comm.Comm) (*tpetra.CrsMatrix, *tpetra.Vector, *tpetra.Vector) {
		m := distmap.NewBlock(n, c.Size())
		a := galeri.Laplace1DDist(c, m)
		b := tpetra.NewVector(c, m)
		b.FillFromGlobal(func(g int) float64 { return 1 + float64(g%5)*0.125 })
		x := tpetra.NewVector(c, m)
		return a, b, x
	}
	kernels := []chaostest.Kernel{
		{Name: "cg-laplace1d", Body: func(c *comm.Comm) (any, error) {
			a, b, x := setup(c)
			res, err := solvers.CG(a, b, x, solvers.Options{Tol: 1e-10, MaxIter: 200, RecordHistory: true})
			if err != nil {
				return nil, err
			}
			out := append(x.GatherAll(), float64(res.Iterations), res.Residual)
			return append(out, res.History...), nil
		}},
		{Name: "cg-jacobi-laplace1d", Body: func(c *comm.Comm) (any, error) {
			a, b, x := setup(c)
			prec, err := precond.NewJacobi(a)
			if err != nil {
				return nil, err
			}
			res, err := solvers.CG(a, b, x, solvers.Options{Tol: 1e-10, MaxIter: 200, Precond: prec, RecordHistory: true})
			if err != nil {
				return nil, err
			}
			out := append(x.GatherAll(), float64(res.Iterations), res.Residual)
			return append(out, res.History...), nil
		}},
		{Name: "bicgstab-laplace1d", Body: func(c *comm.Comm) (any, error) {
			a, b, x := setup(c)
			res, err := solvers.BiCGSTAB(a, b, x, solvers.Options{Tol: 1e-10, MaxIter: 200, RecordHistory: true})
			if err != nil {
				return nil, err
			}
			out := append(x.GatherAll(), float64(res.Iterations), res.Residual)
			return append(out, res.History...), nil
		}},
	}
	chaostest.Run(t, []int{1, 2, 4}, 9090, kernels...)
}
