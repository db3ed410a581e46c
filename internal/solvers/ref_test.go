package solvers

// refCG and refBiCGSTAB are the solver bodies as they stood before the
// reductions and sweeps were fused: three allreduces per CG iteration, six
// per BiCGSTAB iteration, one exec call per vector operation. They are kept
// verbatim as the bitwise reference the fused solvers are pinned to
// (TestFusedKrylovBitwise).

import "odinhpc/internal/tpetra"

// refCG solves A x = b for symmetric positive-definite A using the
// preconditioned conjugate gradient method. x holds the initial guess on
// entry and the solution on exit. Collective.
func refCG(a tpetra.Operator, b, x *tpetra.Vector, opt Options) (Result, error) {
	opt = opt.withDefaults()
	res := Result{}
	c := b.Comm()
	m := a.Map()
	r := tpetra.NewVector(c, m)
	z := tpetra.NewVector(c, m)
	p := tpetra.NewVector(c, m)
	ap := tpetra.NewVector(c, m)

	bnorm := b.Norm2()
	if bnorm == 0 {
		bnorm = 1
	}
	a.Apply(x, r)
	r.Update(1, b, -1) // r = b - Ax
	applyPrec(opt.Precond, r, z)
	p.CopyFrom(z)
	rz := r.Dot(z)
	rnorm := r.Norm2()
	record := func() {
		if opt.RecordHistory {
			res.History = append(res.History, rnorm/bnorm)
		}
	}
	record()
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
		alpha := rz / pap
		x.Axpy(alpha, p)
		r.Axpy(-alpha, ap)
		applyPrec(opt.Precond, r, z)
		rzNew := r.Dot(z)
		if rz == 0 {
			res.Residual = rnorm / bnorm
			return res, ErrBreakdown
		}
		beta := rzNew / rz
		p.Update(1, z, beta) // p = z + beta p
		rz = rzNew
		rnorm = r.Norm2()
		res.Iterations = k + 1
		record()
	}
	if rnorm/bnorm <= opt.Tol {
		res.Converged = true
	}
	res.Residual = rnorm / bnorm
	return res, nil
}

// refBiCGSTAB solves A x = b for general (non-symmetric) A using the
// preconditioned BiCGSTAB method. Collective.
func refBiCGSTAB(a tpetra.Operator, b, x *tpetra.Vector, opt Options) (Result, error) {
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
	phat := tpetra.NewVector(c, m)
	shat := tpetra.NewVector(c, m)

	bnorm := b.Norm2()
	if bnorm == 0 {
		bnorm = 1
	}
	a.Apply(x, r)
	r.Update(1, b, -1)
	rhat.CopyFrom(r)
	rho, alpha, omega := 1.0, 1.0, 1.0
	rnorm := r.Norm2()
	record := func() {
		if opt.RecordHistory {
			res.History = append(res.History, rnorm/bnorm)
		}
	}
	record()
	for k := 0; k < opt.MaxIter; k++ {
		if rnorm/bnorm <= opt.Tol {
			res.Converged = true
			break
		}
		rhoNew := rhat.Dot(r)
		if rhoNew == 0 || omega == 0 {
			res.Residual = rnorm / bnorm
			return res, ErrBreakdown
		}
		if k == 0 {
			p.CopyFrom(r)
		} else {
			beta := (rhoNew / rho) * (alpha / omega)
			// p = r + beta*(p - omega*v)
			p.Axpy(-omega, v)
			p.Update(1, r, beta)
		}
		rho = rhoNew
		applyPrec(opt.Precond, p, phat)
		a.Apply(phat, v)
		rhv := rhat.Dot(v)
		if rhv == 0 {
			res.Residual = rnorm / bnorm
			return res, ErrBreakdown
		}
		alpha = rho / rhv
		s.CopyFrom(r)
		s.Axpy(-alpha, v)
		if sn := s.Norm2(); sn/bnorm <= opt.Tol {
			x.Axpy(alpha, phat)
			rnorm = sn
			res.Iterations = k + 1
			res.Converged = true
			record()
			break
		}
		applyPrec(opt.Precond, s, shat)
		a.Apply(shat, t)
		tt := t.Dot(t)
		if tt == 0 {
			res.Residual = s.Norm2() / bnorm
			return res, ErrBreakdown
		}
		omega = t.Dot(s) / tt
		x.Axpy(alpha, phat)
		x.Axpy(omega, shat)
		r.CopyFrom(s)
		r.Axpy(-omega, t)
		rnorm = r.Norm2()
		res.Iterations = k + 1
		record()
	}
	if rnorm/bnorm <= opt.Tol {
		res.Converged = true
	}
	res.Residual = rnorm / bnorm
	return res, nil
}
