package main

import (
	"fmt"
	"time"

	"odinhpc/internal/comm"
	"odinhpc/internal/distmap"
	"odinhpc/internal/exec"
	"odinhpc/internal/galeri"
	"odinhpc/internal/solvers"
	"odinhpc/internal/tpetra"
	"odinhpc/internal/trace"
)

// The library path with no serving layer: unpreconditioned CG on a 7-point
// Laplacian over loopback tcp. Per rank the computed working set is ~8.4 MB:
// 55296 rows x 7 nonzeros x 16 bytes (value + column index) = 6.2 MB of
// matrix plus five 0.44 MB vectors, above a 2 MiB L2 and inside a large L3.
const (
	cgRanks   = 2
	cgEdge    = 48
	cgTol     = 1e-8
	cgMaxIter = 5000
	// cgTraceCap is the per-lane capacity of a traced solve's session: a
	// solve of ~180 iterations emits ~30k exec chunk events on the shared
	// pool lane, its fullest.
	cgTraceCap = 1 << 16
)

// timedOp wraps the matrix to time each Apply (halo Import plus SpMV) from
// outside.
type timedOp struct {
	a      *tpetra.CrsMatrix
	applys []time.Duration
}

func (t *timedOp) Apply(x, y *tpetra.Vector) {
	t0 := time.Now()
	t.a.Apply(x, y)
	t.applys = append(t.applys, time.Since(t0))
}

func (t *timedOp) Map() *distmap.Map { return t.a.Map() }

// rhsValue is the seeded right-hand side: uniform in [-1, 1) by global
// index, so the problem is the same at every rank count.
func rhsValue(seed int64, g int) float64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(g)*0xBF58476D1CE4E5B9
	z ^= z >> 31
	z *= 0x94D049BB133111EB
	z ^= z >> 29
	return 2*float64(z>>11)/float64(1<<53) - 1
}

// cgSolve is one solve's outcome on one rank.
type cgSolve struct {
	lat    time.Duration
	iters  int
	err    error
	applys []time.Duration
	start  int64 // trace-session time of the solve's start (traced solves)
	end    int64
}

// cgSession is the state shared by one batch session's ranks.
type cgSession struct {
	b *tpetra.Vector
	x *tpetra.Vector
	a *tpetra.CrsMatrix
}

// solve runs one collective CG from x = 0 and checks the true residual.
func (s *cgSession) solve(c *comm.Comm, maxIter int) cgSolve {
	op := &timedOp{a: s.a}
	s.x.PutScalar(0)
	var out cgSolve
	if ts := trace.Active(); ts != nil {
		out.start = ts.Now()
	}
	t0 := time.Now()
	res, err := solvers.CG(op, s.b, s.x, solvers.Options{MaxIter: maxIter, Tol: cgTol})
	out.lat = time.Since(t0)
	if ts := trace.Active(); ts != nil {
		out.end = ts.Now()
	}
	out.iters, out.applys = res.Iterations, op.applys
	switch {
	case err != nil:
		out.err = err
	case maxIter < cgMaxIter:
		// an iteration-capped probe: not expected to converge
	case !res.Converged:
		out.err = fmt.Errorf("cg not converged after %d iterations", res.Iterations)
	default:
		out.err = checkResidual(solvers.ResidualNorm(s.a, s.b, s.x))
	}
	return out
}

// checkResidual is the batch-cg oracle: the true relative residual meets
// the tolerance.
func checkResidual(r float64) error {
	if !(r <= cgTol) {
		return fmt.Errorf("true residual %g above tol %g", r, cgTol)
	}
	return nil
}

// loop runs solves until rank 0's deadline passes. Rank 0 broadcasts the
// go/stop decision before each solve, so every rank runs the same number.
// With cal set, rank 0 calibrates before each decision, while the other
// rank waits for it. With traced set, each solve runs
// in its own trace session, started and stopped by rank 0 between
// barriers, and folded into sp.
func (s *cgSession) loop(c *comm.Comm, d time.Duration, cal *calibration, traced bool, sp *spans) ([]cgSolve, time.Duration) {
	var out []cgSolve
	flag := []int{0}
	start := time.Now()
	deadline := start.Add(d)
	for {
		var sess *trace.Session
		if c.Rank() == 0 {
			if cal != nil {
				cal.run()
			}
			flag[0] = 0
			if time.Now().Before(deadline) {
				flag[0] = 1
				if traced {
					sess = trace.Start(cgTraceCap)
				}
			}
		}
		comm.Bcast(c, 0, flag)
		if flag[0] == 0 {
			return out, time.Since(start)
		}
		out = append(out, s.solve(c, cgMaxIter))
		if traced {
			r := out[len(out)-1]
			c.Barrier()
			if c.Rank() == 0 {
				trace.Stop()
				var in []trace.Event
				for _, ev := range sess.Events() {
					if ev.Start >= r.start && ev.Start+ev.Dur <= r.end {
						in = append(in, ev)
					}
				}
				sp.add(in, sess.Dropped())
			}
			c.Barrier()
		}
	}
}

// runBatchCG sets the session up setupRuns times (tcp endpoints plus the
// assembled matrix) and measures in the last one.
func runBatchCG(cfg runConfig) (*outcome, error) {
	n := cgEdge * cgEdge * cgEdge
	var setups []float64
	o := &outcome{}
	lm := newLayerMetrics()
	var e2e map[string]metric
	cal := &calibration{}
	for rep := 0; rep < setupRuns; rep++ {
		releaseGarbage()
		cal.run()
		t0 := time.Now()
		last := rep == setupRuns-1
		_, err := comm.RunConfig(cgRanks, comm.Config{Transport: "tcp"}, func(c *comm.Comm) error {
			m := distmap.NewBlock(n, c.Size())
			s := &cgSession{a: galeri.Laplace3DDist(c, m, cgEdge, cgEdge, cgEdge),
				b: tpetra.NewVector(c, m), x: tpetra.NewVector(c, m)}
			s.b.FillFromGlobal(func(g int) float64 { return rhsValue(cfg.seed, g) })
			c.Barrier()
			if c.Rank() == 0 {
				setups = append(setups, time.Since(t0).Seconds())
			}
			if !last {
				return nil
			}
			if cfg.trace {
				return s.layers(c, cfg, o, lm)
			}
			solves, _ := s.loop(c, time.Duration(cfg.seconds*float64(time.Second)), cal, false, nil)
			if c.Rank() != 0 {
				return nil
			}
			rss, err := peakRSSMB()
			if err != nil {
				return err
			}
			// The solves run back to back, with a calibration between each
			// two, so the timed phase's length is the sum of their times.
			var lat []float64
			wall := 0.0
			for i, ok := range settleCG(solves, o) {
				wall += solves[i].lat.Seconds()
				if ok {
					lat = append(lat, ms(solves[i].lat))
				}
			}
			e2e = endToEnd(cfg.out, cal, setups, lat, wall, rss)
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("batch session: %w", err)
		}
	}
	if cfg.trace {
		p1, err := p1IterUs(cfg.seed)
		if err != nil {
			return nil, err
		}
		lm.set("solvers.p1_iter_us", p1)
		if it := lm.m["solvers.iter_us"].Value; it > 0 {
			lm.set("comm.parallel_efficiency", p1/(cgRanks*it))
		}
		o.metrics = lm.done()
		return o, nil
	}
	o.metrics = e2e
	return o, nil
}

// settleCG counts rank 0's solves and reports which were correct.
func settleCG(solves []cgSolve, o *outcome) []bool {
	ok := make([]bool, len(solves))
	for i, r := range solves {
		o.attempted++
		if r.err != nil {
			o.fail("solve %d: %v", i, r.err)
			continue
		}
		ok[i] = true
	}
	return ok
}

// layers is the traced run of batch-cg: an untraced phase, a traced phase
// with the operator wrapped, and the iteration-capped probes.
func (s *cgSession) layers(c *comm.Comm, cfg runConfig, o *outcome, lm *layerMetrics) error {
	total := time.Duration(cfg.seconds * float64(time.Second))
	ex0 := exec.Default().Snapshot()
	plain, plainWall := s.loop(c, total*2/5, nil, false, nil)
	ex1 := exec.Default().Snapshot()
	var sp spans
	traced, tracedWall := s.loop(c, total*2/5, nil, true, &sp)
	probe := s.probeIters(c)
	if c.Rank() != 0 {
		return nil
	}
	plainOK := count(settleCG(plain, o))
	tracedOK := count(settleCG(traced, o))
	lm.execDeltas(ex0, ex1, float64(len(plain)), float64(plainWall.Nanoseconds()), cgRanks)
	var iters, iterUs []float64
	for _, r := range plain {
		iters = append(iters, float64(r.iters))
		iterUs = append(iterUs, us(r.lat)/float64(r.iters))
	}
	lm.set("solvers.iterations", median(iters))
	lm.set("solvers.iter_us", median(iterUs))
	lm.set("trace.overhead", (float64(tracedOK)/tracedWall.Seconds())/(float64(plainOK)/plainWall.Seconds()))
	lm.set("trace.dropped", float64(sp.dropped))
	fmt.Fprintf(cfg.out, "# trace: %d windows of one solve, %d events, fullest lane %d of %d, %d dropped\n",
		sp.windows, sp.events, sp.fullest, cgTraceCap, sp.dropped)
	lm.set("comm.allreduce_us", median(sp.allreduce))
	lm.set("tpetra.halo_us", median(sp.gather))
	var applyUs []float64
	var applySum, wallSum float64
	for _, r := range traced {
		for _, d := range r.applys {
			applyUs = append(applyUs, us(d))
			applySum += us(d)
		}
		wallSum += us(r.lat)
	}
	lm.set("tpetra.apply_us", median(applyUs))
	lm.set("tpetra.apply_share", applySum/wallSum)
	lm.set("comm.recv_wait_share", float64(sp.recvNs)/1e3/(wallSum*cgRanks))
	spmvUs := applySum - sp.gatherRank0Us
	lm.set("sparse.spmv_gbs", float64(len(applyUs))*s.spmvBytes()/(spmvUs*1e3))
	for k, v := range probe {
		lm.set(k, v)
	}

	nt := float64(len(traced))
	b := newBudget("batch-cg", "rank 0 wall time of the mean traced solve")
	b.wall = wallSum / nt
	b.add("tpetra: halo gather inside Apply", sp.gatherRank0Us/nt)
	b.add("sparse: local spmv and copies (Apply minus halo)", spmvUs/nt)
	b.add("comm: allreduce (dots and norms)", sp.allreduceRank0Us/nt)
	b.add("exec: vector kernels (pool time per rank minus spmv)", float64(sp.chunkNs)/1e3/cgRanks/nt-spmvUs/nt)
	b.print(cfg.out)
	lm.set("budget.unattributed_share", b.unattributedShare())
	return nil
}

// spmvBytes is the computed traffic of one local SpMV in CSR terms: values
// and column indices (8 bytes each per nonzero), row pointers, the owned
// and ghost entries of x read, and y written.
func (s *cgSession) spmvBytes() float64 {
	rows := float64(s.x.LocalLen())
	nnz := float64(s.a.LocalNNZ())
	return 16*nnz + 8*(rows+1) + 8*(rows+float64(s.a.NumGhost())) + 8*rows
}

// probeIters measures one CG iteration's collectives exactly: solves capped
// at one and at two iterations differ by one iteration. Each rank counts
// its own sends; allreduces come from rank 0's trace lane.
func (s *cgSession) probeIters(c *comm.Comm) map[string]float64 {
	var ar [2]int
	var msgs, bytes [2]int64
	for k := 0; k < 2; k++ {
		var sess *trace.Session
		c.Barrier()
		if c.Rank() == 0 {
			sess = trace.Start(1 << 16)
		}
		c.Barrier()
		m0, b0 := ownSends(c)
		s.solve(c, k+1)
		m1, b1 := ownSends(c)
		sent := comm.Allreduce(c, []int64{m1 - m0, b1 - b0}, comm.OpSum)
		msgs[k], bytes[k] = sent[0], sent[1]
		c.Barrier()
		if c.Rank() == 0 {
			trace.Stop()
			var sp spans
			sp.add(sess.Events(), sess.Dropped())
			ar[k] = sp.reduceRank0
		}
		c.Barrier()
	}
	return map[string]float64{
		// the Allreduce that sums the send counts lies inside both trace
		// sessions and cancels in the difference
		"solvers.allreduce_per_iter": float64(ar[1] - ar[0]),
		"comm.msgs_per_iter":         float64(msgs[1] - msgs[0]),
		"comm.bytes_per_iter":        float64(bytes[1] - bytes[0]),
	}
}

// p1IterUs times the same problem on one rank, the serial baseline of
// comm.parallel_efficiency.
func p1IterUs(seed int64) (float64, error) {
	var out float64
	err := comm.Run(1, func(c *comm.Comm) error {
		m := distmap.NewBlock(cgEdge*cgEdge*cgEdge, 1)
		s := &cgSession{a: galeri.Laplace3DDist(c, m, cgEdge, cgEdge, cgEdge),
			b: tpetra.NewVector(c, m), x: tpetra.NewVector(c, m)}
		s.b.FillFromGlobal(func(g int) float64 { return rhsValue(seed, g) })
		r := s.solve(c, cgMaxIter)
		if r.err != nil {
			return r.err
		}
		out = us(r.lat) / float64(r.iters)
		return nil
	})
	return out, err
}
