package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"

	"odinhpc/internal/comm"
	"odinhpc/internal/direct"
	"odinhpc/internal/distmap"
	"odinhpc/internal/galeri"
	"odinhpc/internal/serve"
	"odinhpc/internal/tpetra"
	"odinhpc/internal/trace"
)

const solveMixDoc = "POST /v1/solve; warm specs laplace1d and tridiag at n 192/224/256 and laplace2d 12^2/14^2/16^2, uniform; " +
	"1 in 32 requests posts a never-seen tridiagonal coo matrix (n 192-256); cg 3/4, bicgstab 1/4; rhs ones or index 1/2 each; tol 1e-8"

const (
	solveColdEvery = 32   // one request in this many carries a never-seen matrix
	solveTol       = 1e-8 // the tolerance every request asks for
	// xNormTol bounds |x_norm - reference| / reference. The reference is
	// the direct LU solution; an iterate with relative residual <= 1e-8
	// has relative error <= cond(A) * 1e-8, and the worst served matrix,
	// laplace1d at n=256, has cond ~2.7e4, so the error is below 2.7e-4.
	xNormTol = 1e-3
)

// solveSpec is one matrix the mix can ask for.
type solveSpec struct {
	kind      string
	n, nx, ny int
	entries   []serve.COOEntry // kind coo: the posted matrix
}

func (sp *solveSpec) size() int {
	if sp.kind == "laplace2d" {
		return sp.nx * sp.ny
	}
	return sp.n
}

// solveOp is the oracle's view of one request.
type solveOp struct {
	spec        *solveSpec
	solver, rhs string
}

func warmSolveSpecs() []*solveSpec {
	var specs []*solveSpec
	for _, n := range []int{192, 224, 256} {
		specs = append(specs, &solveSpec{kind: "laplace1d", n: n}, &solveSpec{kind: "tridiag", n: n})
	}
	for _, e := range []int{12, 14, 16} {
		specs = append(specs, &solveSpec{kind: "laplace2d", nx: e, ny: e})
	}
	return specs
}

func (sp *solveSpec) request(solver, rhs string, maxIter int) *serve.SolveRequest {
	return &serve.SolveRequest{Kind: sp.kind, N: sp.n, NX: sp.nx, NY: sp.ny, Entries: sp.entries,
		Solver: solver, RHS: rhs, MaxIter: maxIter, Tol: solveTol}
}

// solveMix is the serve-solve workload.
type solveMix struct {
	rng       *rand.Rand
	i         int
	coldPhase int
	warmSpecs []*solveSpec
	refs      map[refKey]float64 // references, kept across checks
}

type refKey struct {
	spec *solveSpec
	rhs  string
}

func newSolveMix(seed int64) *solveMix {
	rng := rand.New(rand.NewSource(seed))
	return &solveMix{rng: rng, coldPhase: rng.Intn(solveColdEvery), warmSpecs: warmSolveSpecs(), refs: map[refKey]float64{}}
}

func (m *solveMix) name() string { return "serve-solve" }

// rssAt is about a third of a 20-second run's requests on a 2-core host:
// 192 never-seen matrices by then.
func (m *solveMix) rssAt() int { return 6144 }

func (m *solveMix) next() *op {
	o := &op{index: m.i, path: "/v1/solve"}
	var sp *solveSpec
	if m.i%solveColdEvery == m.coldPhase {
		sp = m.coldSpec()
		o.cold = true
	} else {
		sp = m.warmSpecs[m.rng.Intn(len(m.warmSpecs))]
	}
	m.i++
	solver := "cg"
	if m.rng.Intn(4) == 0 {
		solver = "bicgstab"
	}
	rhs := "ones"
	if m.rng.Intn(2) == 1 {
		rhs = "index"
	}
	body, err := json.Marshal(sp.request(solver, rhs, 0))
	if err != nil {
		panic(err) // plain structs of numbers and strings always marshal
	}
	o.body, o.spec = body, &solveOp{sp, solver, rhs}
	return o
}

// coldSpec draws a tridiagonal SPD matrix with a random diagonal above 2,
// so its fingerprint is new to the server.
func (m *solveMix) coldSpec() *solveSpec {
	n := 192 + m.rng.Intn(65)
	d := 2.5 + 0.5*m.rng.Float64()
	e := make([]serve.COOEntry, 0, 3*n)
	for r := 0; r < n; r++ {
		if r > 0 {
			e = append(e, serve.COOEntry{Row: r, Col: r - 1, Val: -1})
		}
		e = append(e, serve.COOEntry{Row: r, Col: r, Val: d})
		if r < n-1 {
			e = append(e, serve.COOEntry{Row: r, Col: r + 1, Val: -1})
		}
	}
	return &solveSpec{kind: "coo", n: n, entries: e}
}

func (m *solveMix) decode(o *op) (request, error) {
	var req serve.SolveRequest
	if err := json.Unmarshal(o.body, &req); err != nil {
		return nil, err
	}
	return &req, nil
}

func (m *solveMix) warm(s *serve.Scheduler) error {
	for _, sp := range m.warmSpecs {
		req := sp.request("cg", "ones", 0)
		if err := req.Validate(); err != nil {
			return err
		}
		if err := onEveryGroup(s, req.Job()); err != nil {
			return err
		}
	}
	return nil
}

func (m *solveMix) verify(checks []check) []error {
	var need []refKey
	seen := map[refKey]bool{}
	for _, ch := range checks {
		so := ch.op.spec.(*solveOp)
		k := refKey{so.spec, so.rhs}
		if _, ok := m.refs[k]; !ok && !seen[k] {
			seen[k] = true
			need = append(need, k)
		}
	}
	errs := make([]error, len(checks))
	if err := m.addReferences(need); err != nil {
		for i := range errs {
			errs[i] = err
		}
		return errs
	}
	for i, ch := range checks {
		so := ch.op.spec.(*solveOp)
		errs[i] = checkSolve(&ch.rep, so.spec.size(), m.refs[refKey{so.spec, so.rhs}])
	}
	return errs
}

// checkSolve is the serve-solve oracle: converged, within the requested
// tolerance, of the right size, and with the solution norm of the direct
// reference.
func checkSolve(r *reply, n int, ref float64) error {
	switch {
	case !r.Converged:
		return fmt.Errorf("not converged after %d iterations", r.Iterations)
	case !(r.Residual <= solveTol):
		return fmt.Errorf("residual %g above tol %g", r.Residual, solveTol)
	case r.N != n:
		return fmt.Errorf("n %d, want %d", r.N, n)
	case !(math.Abs(r.XNorm-ref) <= xNormTol*ref):
		return fmt.Errorf("x_norm %.12g, direct reference %.12g", r.XNorm, ref)
	}
	return nil
}

// addReferences solves each (matrix, rhs) with the direct LU solver on one
// rank and records the solution norms.
func (m *solveMix) addReferences(keys []refKey) error {
	if len(keys) == 0 {
		return nil
	}
	return comm.Run(1, func(c *comm.Comm) error {
		for _, k := range keys {
			a := k.spec.build(c)
			b := tpetra.NewVector(c, a.Map())
			fillRHS(b, k.rhs)
			x := tpetra.NewVector(c, a.Map())
			if err := direct.SolveOnce(a, b, x); err != nil {
				return err
			}
			m.refs[k] = x.Norm2()
		}
		return nil
	})
}

// build assembles the matrix the server assembles for this spec.
func (sp *solveSpec) build(c *comm.Comm) *tpetra.CrsMatrix {
	m := distmap.NewBlock(sp.size(), c.Size())
	switch sp.kind {
	case "laplace1d":
		return galeri.Laplace1DDist(c, m)
	case "tridiag":
		return galeri.BuildDist(c, m, galeri.TridiagRow(sp.n, -1, 2.5, -1))
	case "laplace2d":
		return galeri.Laplace2DDist(c, m, sp.nx, sp.ny)
	}
	a := tpetra.NewCrsMatrix(c, m)
	for _, e := range sp.entries {
		if m.Owner(e.Row) == c.Rank() {
			a.InsertGlobal(e.Row, e.Col, e.Val)
		}
	}
	a.FillComplete()
	return a
}

// fillRHS sets the right-hand side a solve request names.
func fillRHS(b *tpetra.Vector, rhs string) {
	if rhs == "index" {
		n := float64(b.GlobalLen())
		b.FillFromGlobal(func(g int) float64 { return float64(g)/n - 0.5 })
		return
	}
	b.PutScalar(1)
}

// probe measures the per-iteration collective cost exactly: the same warm
// CG solve capped at one and at two iterations, on the idle server, differ
// by one iteration. Each rank counts its own sends, so the counts do not
// race.
func (m *solveMix) probe(s *server, lm *layerMetrics) error {
	var ar [2]int
	var msgs, bytes [2]int64
	for k := 0; k < 2; k++ {
		req := m.warmSpecs[4].request("cg", "ones", k+1) // laplace1d n=256
		if err := req.Validate(); err != nil {
			return err
		}
		inner := req.Job()
		sent := make([][2]int64, serveRanks)
		wrapped := func(c *comm.Comm, st *serve.RankState) (any, error) {
			m0, b0 := ownSends(c)
			out, err := inner(c, st)
			m1, b1 := ownSends(c)
			sent[c.Rank()] = [2]int64{m1 - m0, b1 - b0}
			return out, err
		}
		sess := trace.Start(1 << 16)
		_, err := s.sched.Do("probe", wrapped)
		trace.Stop()
		if err != nil {
			return fmt.Errorf("iteration probe: %w", err)
		}
		var sp spans
		sp.add(sess.Events(), sess.Dropped())
		ar[k] = sp.reduceRank0
		for _, v := range sent {
			msgs[k] += v[0]
			bytes[k] += v[1]
		}
	}
	lm.set("solvers.allreduce_per_iter", float64(ar[1]-ar[0]))
	lm.set("comm.msgs_per_iter", float64(msgs[1]-msgs[0]))
	lm.set("comm.bytes_per_iter", float64(bytes[1]-bytes[0]))
	return nil
}

// ownSends returns the messages and bytes this rank has sent on c.
func ownSends(c *comm.Comm) (msgs, bytes int64) {
	st := c.Stats()
	for dst := 0; dst < st.Size; dst++ {
		msgs += st.MsgCount(c.Rank(), dst)
		bytes += st.ByteCount(c.Rank(), dst)
	}
	return msgs, bytes
}
