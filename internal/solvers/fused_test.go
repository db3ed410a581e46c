package solvers

import (
	"fmt"
	"math"
	"testing"

	"odinhpc/internal/comm"
	"odinhpc/internal/distmap"
	"odinhpc/internal/exec"
	"odinhpc/internal/galeri"
	"odinhpc/internal/precond"
	"odinhpc/internal/tpetra"
)

// krylovSolver is the signature CG, BiCGSTAB and their references share.
type krylovSolver func(a tpetra.Operator, b, x *tpetra.Vector, opt Options) (Result, error)

// riggedOp applies A except on its at-th call (1-based), where it writes
// either zeros or rot(x) instead. It steers a solve into a chosen
// ErrBreakdown branch at a chosen iteration.
type riggedOp struct {
	a     tpetra.Operator
	at    int
	rot   bool
	calls int
}

func (o *riggedOp) Map() *distmap.Map { return o.a.Map() }

func (o *riggedOp) Apply(x, y *tpetra.Vector) {
	o.calls++
	switch {
	case o.calls != o.at:
		o.a.Apply(x, y)
	case o.rot:
		rotate(x.Data, y.Data)
	default:
		y.PutScalar(0)
	}
}

// rotate writes y = (x1, -x0, x3, -x2, ...), so x·y is exactly zero when
// every rank's segment and every exec chunk has even length: each pair adds
// x0*x1 and then subtracts the same product.
func rotate(x, y []float64) {
	for i := 0; i+1 < len(x); i += 2 {
		y[i], y[i+1] = x[i+1], -x[i]
	}
}

// rotPrec is an indefinite "preconditioner" with r·M⁻¹r = 0, which drives
// CG into its rz == 0 breakdown.
type rotPrec struct{}

func (rotPrec) ApplyInverse(r, z *tpetra.Vector) { rotate(r.Data, z.Data) }

// krylovRun is everything a solve reports, compared bit for bit.
type krylovRun struct {
	res Result
	err error
	x   []float64
}

func runKrylov(solve krylovSolver, a tpetra.Operator, b, x0 *tpetra.Vector, opt Options) krylovRun {
	x := x0.Clone()
	res, err := solve(a, b, x, opt)
	return krylovRun{res: res, err: err, x: x.Data}
}

// diffRuns describes the first difference between two runs, or returns "".
func diffRuns(want, got krylovRun) string {
	bits := math.Float64bits
	switch {
	case want.err != got.err:
		return fmt.Sprintf("err %v, want %v", got.err, want.err)
	case want.res.Converged != got.res.Converged:
		return fmt.Sprintf("converged %v, want %v", got.res.Converged, want.res.Converged)
	case want.res.Iterations != got.res.Iterations:
		return fmt.Sprintf("iterations %d, want %d", got.res.Iterations, want.res.Iterations)
	case bits(want.res.Residual) != bits(got.res.Residual):
		return fmt.Sprintf("residual %x, want %x", got.res.Residual, want.res.Residual)
	case len(want.res.History) != len(got.res.History):
		return fmt.Sprintf("history length %d, want %d", len(got.res.History), len(want.res.History))
	}
	for i := range want.res.History {
		if bits(want.res.History[i]) != bits(got.res.History[i]) {
			return fmt.Sprintf("history[%d] %x, want %x", i, got.res.History[i], want.res.History[i])
		}
	}
	for i := range want.x {
		if bits(want.x[i]) != bits(got.x[i]) {
			return fmt.Sprintf("x[%d] %x, want %x", i, got.x[i], want.x[i])
		}
	}
	return ""
}

// withPool runs fn with the process-wide exec engine at the given pool
// size, restoring the previous engine afterwards.
func withPool(workers int, fn func()) {
	prev := exec.Default()
	exec.SetDefaultWorkers(workers)
	defer exec.SetDefault(prev)
	fn()
}

// bitwiseCase is one solve of the grid, run through both the fused solver
// and its reference.
type bitwiseCase struct {
	name      string
	solve     krylovSolver
	ref       krylovSolver
	nx, ny    int  // grid: nx*ny divisible by 1..4, even on every rank
	nonsym    bool // convection-diffusion instead of the Laplacian
	prec      string
	nonzeroX0 bool
	maxIter   int
	rigAt     int  // riggedOp call that misbehaves; 0 for none
	rigRot    bool // rotate instead of zero on that call
	wantErr   error
	wantIters int // iterations completed before the breakdown
}

// problemKey names one grid matrix, and with prec set, one
// preconditioner for it.
type problemKey struct {
	nx, ny int
	nonsym bool
	prec   string
}

// problemCache builds each grid matrix and preconditioner once per
// communicator; the solvers only read them.
type problemCache struct {
	c     *comm.Comm
	mats  map[problemKey]*tpetra.CrsMatrix
	precs map[problemKey]Preconditioner
}

func newProblemCache(c *comm.Comm) *problemCache {
	return &problemCache{c: c, mats: map[problemKey]*tpetra.CrsMatrix{}, precs: map[problemKey]Preconditioner{}}
}

func (pc *problemCache) matrix(bc bitwiseCase) *tpetra.CrsMatrix {
	key := problemKey{nx: bc.nx, ny: bc.ny, nonsym: bc.nonsym}
	if a, ok := pc.mats[key]; ok {
		return a
	}
	row := galeri.Laplace2DRow(bc.nx, bc.ny)
	if bc.nonsym {
		row = galeri.ConvDiff2DRow(bc.nx, bc.ny, 20, 10)
	}
	a := galeri.BuildDist(pc.c, distmap.NewBlock(bc.nx*bc.ny, pc.c.Size()), row)
	pc.mats[key] = a
	return a
}

func (pc *problemCache) precond(bc bitwiseCase, a *tpetra.CrsMatrix) (Preconditioner, error) {
	key := problemKey{nx: bc.nx, ny: bc.ny, nonsym: bc.nonsym, prec: bc.prec}
	if p, ok := pc.precs[key]; ok {
		return p, nil
	}
	var p Preconditioner
	var err error
	switch bc.prec {
	case "jacobi":
		p, err = precond.NewJacobi(a)
	case "ilu0":
		p, err = precond.NewILU0(a)
	case "rot":
		p = rotPrec{}
	}
	pc.precs[key] = p
	return p, err
}

func (bc bitwiseCase) run(pc *problemCache) (want, got krylovRun, err error) {
	c := pc.c
	a := pc.matrix(bc)
	m := a.Map()
	b := tpetra.NewVector(c, m)
	b.FillFromGlobal(func(g int) float64 { return 1 + math.Cos(0.37*float64(g)) })
	x0 := tpetra.NewVector(c, m)
	if bc.nonzeroX0 {
		x0.FillFromGlobal(func(g int) float64 { return 0.5 * math.Sin(0.11*float64(g)) })
	}
	opt := Options{MaxIter: bc.maxIter, RecordHistory: true}
	if opt.Precond, err = pc.precond(bc, a); err != nil {
		return want, got, err
	}
	op := func() tpetra.Operator {
		if bc.rigAt == 0 {
			return a
		}
		return &riggedOp{a: a, at: bc.rigAt, rot: bc.rigRot}
	}
	want = runKrylov(bc.ref, op(), b, x0, opt)
	got = runKrylov(bc.solve, op(), b, x0, opt)
	return want, got, nil
}

// bitwiseGrid is the set of solves pinned at every rank count and pool
// size: both local sizes (one exec chunk, several chunks), every
// preconditioner, zero and nonzero initial guesses, converged and
// MaxIter-capped runs, and every reachable ErrBreakdown branch.
func bitwiseGrid() []bitwiseCase {
	// small is one exec chunk per rank; large is more than
	// exec.DefaultGrain per rank even at P=4.
	small, large := [2]int{16, 15}, [2]int{150, 120}
	var cases []bitwiseCase
	for _, s := range []struct {
		name       string
		solve, ref krylovSolver
		nonsym     bool
	}{{"cg", CG, refCG, false}, {"bicgstab", BiCGSTAB, refBiCGSTAB, true}} {
		for _, prec := range []string{"none", "jacobi", "ilu0"} {
			for _, x0 := range []bool{false, true} {
				cases = append(cases,
					bitwiseCase{name: fmt.Sprintf("%s/%s/x0=%v/converge", s.name, prec, x0),
						solve: s.solve, ref: s.ref, nx: small[0], ny: small[1], nonsym: s.nonsym, prec: prec, nonzeroX0: x0},
					bitwiseCase{name: fmt.Sprintf("%s/%s/x0=%v/capped", s.name, prec, x0),
						solve: s.solve, ref: s.ref, nx: large[0], ny: large[1], nonsym: s.nonsym, prec: prec, nonzeroX0: x0, maxIter: 12})
			}
		}
	}
	for _, g := range [][2]int{small, large} {
		n := g[0] * g[1]
		cases = append(cases,
			// Apply calls: 1 is the set-up residual, then CG makes one per
			// iteration and BiCGSTAB two (v, then t).
			bitwiseCase{name: fmt.Sprintf("cg/pap=0/n=%d", n), solve: CG, ref: refCG, nx: g[0], ny: g[1],
				rigAt: 4, wantErr: ErrBreakdown, wantIters: 2},
			bitwiseCase{name: fmt.Sprintf("cg/rz=0/n=%d", n), solve: CG, ref: refCG, nx: g[0], ny: g[1],
				prec: "rot", wantErr: ErrBreakdown, wantIters: 0},
			bitwiseCase{name: fmt.Sprintf("bicgstab/rhv=0/n=%d", n), solve: BiCGSTAB, ref: refBiCGSTAB, nx: g[0], ny: g[1],
				nonsym: true, rigAt: 4, wantErr: ErrBreakdown, wantIters: 1},
			bitwiseCase{name: fmt.Sprintf("bicgstab/tt=0/n=%d", n), solve: BiCGSTAB, ref: refBiCGSTAB, nx: g[0], ny: g[1],
				nonsym: true, rigAt: 5, wantErr: ErrBreakdown, wantIters: 1},
			bitwiseCase{name: fmt.Sprintf("bicgstab/omega=0/n=%d", n), solve: BiCGSTAB, ref: refBiCGSTAB, nx: g[0], ny: g[1],
				nonsym: true, rigAt: 3, rigRot: true, wantErr: ErrBreakdown, wantIters: 1},
		)
	}
	return cases
}

// TestFusedKrylovBitwise pins CG and BiCGSTAB to refCG and refBiCGSTAB, the
// unfused solver bodies: x, Iterations, Residual, History and the returned
// error must match bit for bit at every rank count and exec pool size.
func TestFusedKrylovBitwise(t *testing.T) {
	cases := bitwiseGrid()
	for _, workers := range []int{1, 2, 4} {
		withPool(workers, func() {
			for p := 1; p <= 4; p++ {
				err := comm.Run(p, func(c *comm.Comm) error {
					pc := newProblemCache(c)
					for _, bc := range cases {
						want, got, err := bc.run(pc)
						if err != nil {
							return fmt.Errorf("%s: %v", bc.name, err)
						}
						if d := diffRuns(want, got); d != "" {
							return fmt.Errorf("%s: rank %d: %s", bc.name, c.Rank(), d)
						}
						if want.err != bc.wantErr || (bc.wantErr != nil && want.res.Iterations != bc.wantIters) {
							return fmt.Errorf("%s: reference returned %v after %d iterations, case expects %v after %d",
								bc.name, want.err, want.res.Iterations, bc.wantErr, bc.wantIters)
						}
						if bc.wantErr == nil && want.res.Converged != (bc.maxIter == 0) {
							return fmt.Errorf("%s: reference converged = %v after %d iterations", bc.name, want.res.Converged, want.res.Iterations)
						}
					}
					return nil
				})
				if err != nil {
					t.Fatalf("P=%d pool=%d: %v", p, workers, err)
				}
			}
		})
	}
}

// rank0Cost runs body on two in-process ranks and returns the messages
// rank 0 sent and the exec engine calls of both ranks together.
func rank0Cost(body func(c *comm.Comm) error) (sends, execCalls int64, err error) {
	calls0 := exec.Default().Snapshot().Calls
	stats, err := comm.RunStats(2, body)
	if err != nil {
		return 0, 0, err
	}
	execCalls = exec.Default().Snapshot().Calls - calls0
	st := stats.Snapshot()
	for dst := 0; dst < st.Size; dst++ {
		sends += st.MsgCount(0, dst)
	}
	return sends, execCalls, nil
}

// iterationCounts splits what a solve costs into set-up and one iteration.
type iterationCounts struct {
	setupAllreduces, iterAllreduces int64
	execPerIter                     float64 // exec calls per iteration per rank
}

// countIterations measures solve on Laplace1D n=256 at P=2, optionally
// Jacobi-preconditioned. Each measured run builds the same problem and then
// does nothing, one Apply, or a solve capped at one or two iterations, so
// differences between runs isolate one Apply and one iteration exactly.
// Rank 0 sends one message per allreduce (the Bcast half) plus the Apply
// halo, so its own row of comm.Stats counts allreduces once the Applies are
// taken out.
func countIterations(solve krylovSolver, appliesPerIter int, jacobi bool) (iterationCounts, error) {
	run := func(applies, maxIter int) (sends, execCalls int64, err error) {
		return rank0Cost(func(c *comm.Comm) error {
			a, b, _ := manufactured(c, 256)
			opt := Options{MaxIter: maxIter}
			if jacobi {
				j, err := precond.NewJacobi(a)
				if err != nil {
					return err
				}
				opt.Precond = j
			}
			y := tpetra.NewVector(c, a.Map())
			for i := 0; i < applies; i++ {
				a.Apply(b, y)
			}
			if maxIter == 0 {
				return nil
			}
			res, err := solve(a, b, y, opt)
			if err == nil && res.Iterations != maxIter {
				err = fmt.Errorf("solve stopped after %d of %d iterations", res.Iterations, maxIter)
			}
			return err
		})
	}
	var sends, calls [4]int64
	for k, stage := range [4][2]int{{0, 0}, {1, 0}, {0, 1}, {0, 2}} {
		var err error
		if sends[k], calls[k], err = run(stage[0], stage[1]); err != nil {
			return iterationCounts{}, err
		}
	}
	halo := sends[1] - sends[0]
	iter := sends[3] - sends[2]
	return iterationCounts{
		setupAllreduces: sends[2] - sends[0] - iter - halo, // set-up does one Apply
		iterAllreduces:  iter - int64(appliesPerIter)*halo,
		execPerIter:     float64(calls[3]-calls[2]) / 2,
	}, nil
}

// TestKrylovAllreduceCount guards the fused reductions: CG does two
// allreduces per iteration with or without a preconditioner, BiCGSTAB four,
// and each does one in set-up (b·b with r·r, and r·z for CG).
func TestKrylovAllreduceCount(t *testing.T) {
	for _, tc := range []struct {
		name           string
		solve          krylovSolver
		appliesPerIter int
		jacobi         bool
		wantIter       int64
	}{
		{"cg", CG, 1, false, 2},
		{"cg+jacobi", CG, 1, true, 2},
		{"bicgstab", BiCGSTAB, 2, false, 4},
		{"bicgstab+jacobi", BiCGSTAB, 2, true, 4},
	} {
		got, err := countIterations(tc.solve, tc.appliesPerIter, tc.jacobi)
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if got.iterAllreduces != tc.wantIter || got.setupAllreduces != 1 {
			t.Errorf("%s: %d allreduces per iteration and %d in set-up, want %d and 1",
				tc.name, got.iterAllreduces, got.setupAllreduces, tc.wantIter)
		}
	}
}
