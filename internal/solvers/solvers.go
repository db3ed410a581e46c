// Package solvers implements the iterative Krylov-space linear solvers of
// the Trilinos analog (AztecOO, paper Table I): CG, BiCGSTAB, restarted
// GMRES, MINRES, and Richardson iteration, each accepting any distributed
// tpetra.Operator and an optional preconditioner. A ParameterList-driven
// front end (Solve) mirrors how PyTrilinos users configure AztecOO.
package solvers

import (
	"errors"
	"fmt"
	"math"

	"odinhpc/internal/teuchos"
	"odinhpc/internal/tpetra"
)

// Preconditioner applies an approximate inverse: z = M^{-1} r. The identity
// is represented by a nil Preconditioner.
type Preconditioner interface {
	ApplyInverse(r, z *tpetra.Vector)
}

// Options configures an iterative solve.
type Options struct {
	MaxIter       int            // maximum iterations (default 1000)
	Tol           float64        // relative residual tolerance (default 1e-8)
	Precond       Preconditioner // nil for unpreconditioned
	RecordHistory bool           // store per-iteration residual norms
}

func (o Options) withDefaults() Options {
	if o.MaxIter <= 0 {
		o.MaxIter = 1000
	}
	if o.Tol <= 0 {
		o.Tol = 1e-8
	}
	return o
}

// Result reports the outcome of an iterative solve.
type Result struct {
	Converged  bool
	Iterations int
	Residual   float64   // final relative residual ||b-Ax|| / ||b||
	History    []float64 // per-iteration relative residuals if recorded
}

func (r Result) String() string {
	state := "converged"
	if !r.Converged {
		state = "NOT converged"
	}
	return fmt.Sprintf("%s in %d iterations, rel. residual %.3e", state, r.Iterations, r.Residual)
}

// ErrBreakdown is returned when a Krylov recurrence hits a (near-)zero
// denominator before convergence.
var ErrBreakdown = errors.New("solvers: Krylov recurrence breakdown")

func applyPrec(p Preconditioner, r, z *tpetra.Vector) {
	if p == nil {
		z.CopyFrom(r)
		return
	}
	p.ApplyInverse(r, z)
}

// CG solves A x = b for symmetric positive-definite A using the
// preconditioned conjugate gradient method. x holds the initial guess on
// entry and the solution on exit. Collective.
//
// An iteration does two allreduces: p·Ap, then r·z together with r·r.
// x += αp, r −= α·Ap and the local r·r share one exec sweep. Without a
// preconditioner z aliases r, so r·z is r·r and ||r|| is its square root.
// The iterates are bitwise equal to the unfused recurrence (DESIGN.md,
// "Krylov solvers").
func CG(a tpetra.Operator, b, x *tpetra.Vector, opt Options) (Result, error) {
	opt = opt.withDefaults()
	res := Result{}
	c := b.Comm()
	m := a.Map()
	r := tpetra.NewVector(c, m)
	z := r
	if opt.Precond != nil {
		z = tpetra.NewVector(c, m)
	}
	p := tpetra.NewVector(c, m)
	ap := tpetra.NewVector(c, m)

	a.Apply(x, r)
	r.Update(1, b, -1) // r = b - Ax
	var bb, rz, rr float64
	if opt.Precond == nil {
		d := tpetra.Dots([]*tpetra.Vector{b, r}, []*tpetra.Vector{b, r})
		bb, rz, rr = d[0], d[1], d[1]
	} else {
		opt.Precond.ApplyInverse(r, z)
		d := tpetra.Dots([]*tpetra.Vector{b, r, r}, []*tpetra.Vector{b, z, r})
		bb, rz, rr = d[0], d[1], d[2]
	}
	bnorm := math.Sqrt(bb)
	if bnorm == 0 {
		bnorm = 1
	}
	p.CopyFrom(z)
	rnorm := math.Sqrt(rr)
	record := func() {
		if opt.RecordHistory {
			res.History = append(res.History, rnorm/bnorm)
		}
	}
	record()
	xd, rd, pd, apd := x.Data, r.Data, p.Data, ap.Data
	var alpha float64
	// x += alpha*p; r -= alpha*Ap; local r·r (dense.Axpy and DotSlices
	// shapes). With a preconditioner the r·r partial is dropped and r·r
	// travels with r·z instead.
	step := func(lo, hi int) (part tpetra.Partials) {
		nalpha := -alpha
		var acc float64
		for i := lo; i < hi; i++ {
			xd[i] += alpha * pd[i]
			rd[i] += nalpha * apd[i]
			acc += rd[i] * rd[i]
		}
		part[0] = acc
		return part
	}
	for k := 0; k < opt.MaxIter; k++ {
		if rnorm/bnorm <= opt.Tol {
			res.Converged = true
			break
		}
		a.Apply(p, ap)
		pap := p.Dot(ap)
		if pap == 0 {
			res.Residual = rnorm / bnorm
			return res, ErrBreakdown
		}
		alpha = rz / pap
		var rzNew float64
		if opt.Precond == nil {
			rr = tpetra.FusedSweep(1, step, x, p, r, ap)[0]
			rzNew = rr
		} else {
			tpetra.FusedSweep(0, step, x, p, r, ap)
			opt.Precond.ApplyInverse(r, z)
			d := tpetra.Dots([]*tpetra.Vector{r, r}, []*tpetra.Vector{z, r})
			rzNew, rr = d[0], d[1]
		}
		if rz == 0 {
			res.Residual = rnorm / bnorm
			return res, ErrBreakdown
		}
		beta := rzNew / rz
		p.Update(1, z, beta) // p = z + beta p
		rz = rzNew
		rnorm = math.Sqrt(rr)
		res.Iterations = k + 1
		record()
	}
	if rnorm/bnorm <= opt.Tol {
		res.Converged = true
	}
	res.Residual = rnorm / bnorm
	return res, nil
}

// BiCGSTAB solves A x = b for general (non-symmetric) A using the
// preconditioned BiCGSTAB method. Collective.
//
// An iteration does four allreduces: rhat·v, s·s, then t·t with t·s, then
// r·r with the next iteration's rhat·r. Each vector update shares one exec
// sweep with the inner products of its result, and without a preconditioner
// phat aliases p and shat aliases s. The iterates are bitwise equal to the
// unfused recurrence (DESIGN.md, "Krylov solvers").
func BiCGSTAB(a tpetra.Operator, b, x *tpetra.Vector, opt Options) (Result, error) {
	opt = opt.withDefaults()
	res := Result{}
	c := b.Comm()
	m := a.Map()
	r := tpetra.NewVector(c, m)
	rhat := tpetra.NewVector(c, m)
	p := tpetra.NewVector(c, m)
	v := tpetra.NewVector(c, m)
	s := tpetra.NewVector(c, m)
	t := tpetra.NewVector(c, m)
	phat, shat := p, s
	if opt.Precond != nil {
		phat = tpetra.NewVector(c, m)
		shat = tpetra.NewVector(c, m)
	}

	a.Apply(x, r)
	r.Update(1, b, -1)
	rhat.CopyFrom(r)
	// rhat is a copy of r, so rhat·r is r·r bit for bit.
	d := tpetra.Dots([]*tpetra.Vector{b, r}, []*tpetra.Vector{b, r})
	bnorm := math.Sqrt(d[0])
	if bnorm == 0 {
		bnorm = 1
	}
	rnorm, rhoNew := math.Sqrt(d[1]), d[1]
	rho, alpha, omega := 1.0, 1.0, 1.0
	record := func() {
		if opt.RecordHistory {
			res.History = append(res.History, rnorm/bnorm)
		}
	}
	record()
	xd, rd, rhd, pd, vd := x.Data, r.Data, rhat.Data, p.Data, v.Data
	sd, td, phd, shd := s.Data, t.Data, phat.Data, shat.Data
	var beta float64
	// p = r + beta*(p - omega*v): the p.Axpy then p.Update shapes.
	pStep := func(lo, hi int) (part tpetra.Partials) {
		nomega := -omega
		for i := lo; i < hi; i++ {
			pd[i] += nomega * vd[i]
			pd[i] = 1*rd[i] + beta*pd[i]
		}
		return part
	}
	// s = r - alpha*v and the local s·s.
	sStep := func(lo, hi int) (part tpetra.Partials) {
		nalpha := -alpha
		var acc float64
		for i := lo; i < hi; i++ {
			sd[i] = rd[i]
			sd[i] += nalpha * vd[i]
			acc += sd[i] * sd[i]
		}
		part[0] = acc
		return part
	}
	// x += alpha*phat + omega*shat as two Axpy roundings; r = s - omega*t
	// and the local r·r and rhat·r.
	xrStep := func(lo, hi int) (part tpetra.Partials) {
		nomega := -omega
		var rr, rhr float64
		for i := lo; i < hi; i++ {
			xd[i] += alpha * phd[i]
			xd[i] += omega * shd[i]
			rd[i] = sd[i]
			rd[i] += nomega * td[i]
			rr += rd[i] * rd[i]
			rhr += rhd[i] * rd[i]
		}
		part[0], part[1] = rr, rhr
		return part
	}
	for k := 0; k < opt.MaxIter; k++ {
		if rnorm/bnorm <= opt.Tol {
			res.Converged = true
			break
		}
		if rhoNew == 0 || omega == 0 {
			res.Residual = rnorm / bnorm
			return res, ErrBreakdown
		}
		if k == 0 {
			p.CopyFrom(r)
		} else {
			beta = (rhoNew / rho) * (alpha / omega)
			tpetra.FusedSweep(0, pStep, p, v, r)
		}
		rho = rhoNew
		if opt.Precond != nil {
			opt.Precond.ApplyInverse(p, phat)
		}
		a.Apply(phat, v)
		rhv := rhat.Dot(v)
		if rhv == 0 {
			res.Residual = rnorm / bnorm
			return res, ErrBreakdown
		}
		alpha = rho / rhv
		sn := math.Sqrt(tpetra.FusedSweep(1, sStep, s, r, v)[0])
		if sn/bnorm <= opt.Tol {
			x.Axpy(alpha, phat)
			rnorm = sn
			res.Iterations = k + 1
			res.Converged = true
			record()
			break
		}
		if opt.Precond != nil {
			opt.Precond.ApplyInverse(s, shat)
		}
		a.Apply(shat, t)
		d := tpetra.Dots([]*tpetra.Vector{t, t}, []*tpetra.Vector{t, s})
		tt := d[0]
		if tt == 0 {
			res.Residual = sn / bnorm
			return res, ErrBreakdown
		}
		omega = d[1] / tt
		d = tpetra.FusedSweep(2, xrStep, x, phat, shat, r, s, t, rhat)
		rnorm, rhoNew = math.Sqrt(d[0]), d[1]
		res.Iterations = k + 1
		record()
	}
	if rnorm/bnorm <= opt.Tol {
		res.Converged = true
	}
	res.Residual = rnorm / bnorm
	return res, nil
}

// Richardson performs damped Richardson iteration
// x <- x + omega * M^{-1} (b - A x). With a strong preconditioner it is the
// classic stationary smoother; it is also the fallback AztecOO method.
func Richardson(a tpetra.Operator, b, x *tpetra.Vector, omega float64, opt Options) (Result, error) {
	opt = opt.withDefaults()
	res := Result{}
	c := b.Comm()
	m := a.Map()
	r := tpetra.NewVector(c, m)
	z := tpetra.NewVector(c, m)
	bnorm := b.Norm2()
	if bnorm == 0 {
		bnorm = 1
	}
	for k := 0; k < opt.MaxIter; k++ {
		a.Apply(x, r)
		r.Update(1, b, -1)
		rnorm := r.Norm2()
		if opt.RecordHistory {
			res.History = append(res.History, rnorm/bnorm)
		}
		res.Residual = rnorm / bnorm
		if res.Residual <= opt.Tol {
			res.Converged = true
			return res, nil
		}
		applyPrec(opt.Precond, r, z)
		x.Axpy(omega, z)
		res.Iterations = k + 1
	}
	a.Apply(x, r)
	r.Update(1, b, -1)
	res.Residual = r.Norm2() / bnorm
	res.Converged = res.Residual <= opt.Tol
	return res, nil
}

// Solve is the AztecOO-style front end: it reads the method and its
// parameters from a Teuchos parameter list and dispatches. Recognized
// parameters: "method" (cg | bicgstab | gmres | minres | richardson),
// "max iterations", "tolerance", "restart" (gmres), "omega" (richardson).
func Solve(a tpetra.Operator, b, x *tpetra.Vector, prec Preconditioner, params *teuchos.ParameterList) (Result, error) {
	opt := Options{
		MaxIter: params.GetInt("max iterations", 1000),
		Tol:     params.GetFloat("tolerance", 1e-8),
		Precond: prec,
	}
	method := params.GetString("method", "cg")
	switch method {
	case "cg":
		return CG(a, b, x, opt)
	case "bicgstab":
		return BiCGSTAB(a, b, x, opt)
	case "gmres":
		return GMRES(a, b, x, params.GetInt("restart", 30), opt)
	case "minres":
		return MINRES(a, b, x, opt)
	case "richardson":
		return Richardson(a, b, x, params.GetFloat("omega", 1.0), opt)
	default:
		return Result{}, fmt.Errorf("solvers: unknown method %q", method)
	}
}

// ResidualNorm computes ||b - A x|| / ||b|| directly; used by tests and the
// experiment harness to verify solver-reported residuals.
func ResidualNorm(a tpetra.Operator, b, x *tpetra.Vector) float64 {
	r := tpetra.NewVector(b.Comm(), a.Map())
	a.Apply(x, r)
	r.Update(1, b, -1)
	bn := b.Norm2()
	if bn == 0 {
		bn = 1
	}
	return r.Norm2() / bn
}

// nonFinite reports whether v is NaN or infinite.
func nonFinite(v float64) bool { return math.IsNaN(v) || math.IsInf(v, 0) }
