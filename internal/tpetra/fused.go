package tpetra

import (
	"fmt"

	"odinhpc/internal/comm"
	"odinhpc/internal/exec"
)

// MaxFusedDots is the most inner products one fused sweep accumulates. The
// bound lets a chunk's partial sums live in a fixed-size array, so a sweep
// allocates nothing per chunk.
const MaxFusedDots = 4

// Partials holds one exec chunk's partial inner products in a fused sweep.
type Partials [MaxFusedDots]float64

func addPartials(a, b Partials) Partials {
	for j := range a {
		a[j] += b[j]
	}
	return a
}

// FusedSweep runs body once per exec chunk [lo, hi) of the local segment
// shared by vs, on exec.Default(). body may update any of vs in place and
// returns the chunk's partial inner products in its first ndots entries.
// The partials combine in exec.ParallelReduce's chunk-ordered tree and then
// across ranks in one allreduce, whose first ndots entries FusedSweep
// returns. Entry j is bitwise equal to the Vector.Dot it replaces provided
// body keeps that Dot's shape: a float64 accumulator starting at zero that
// adds x[i]*y[i] for i from lo up to hi, as dense.DotSlices does. With
// ndots == 0 the sweep is a plain ParallelFor that communicates nothing and
// returns nil; otherwise it is collective.
func FusedSweep(ndots int, body func(lo, hi int) Partials, vs ...*Vector) []float64 {
	if ndots < 0 || ndots > MaxFusedDots {
		panic(fmt.Sprintf("tpetra: FusedSweep carries 0..%d inner products, got %d", MaxFusedDots, ndots))
	}
	if len(vs) == 0 {
		panic("tpetra: FusedSweep needs at least one vector")
	}
	for _, v := range vs[1:] {
		vs[0].checkCompat(v, "FusedSweep")
	}
	n := len(vs[0].Data)
	if ndots == 0 {
		exec.Default().ParallelFor(n, func(lo, hi int) { body(lo, hi) })
		return nil
	}
	part := exec.ParallelReduce(exec.Default(), n, body, addPartials)
	return comm.Allreduce(vs[0].c, part[:ndots], comm.OpSum)
}

// Dots returns the global inner products xs[i]·ys[i], up to MaxFusedDots
// of them, from one exec sweep and one allreduce. Each entry is bitwise
// equal to xs[i].Dot(ys[i]): the sweep keeps DotSlices' chunking and
// accumulation order, and the allreduce combines each entry over the same
// rank tree as a scalar allreduce. Collective.
func Dots(xs, ys []*Vector) []float64 {
	if len(xs) != len(ys) {
		panic(fmt.Sprintf("tpetra: Dots requires operand lists of equal length (%d vs %d)", len(xs), len(ys)))
	}
	if len(xs) == 0 || len(xs) > MaxFusedDots {
		panic(fmt.Sprintf("tpetra: Dots carries 1..%d inner products, got %d", MaxFusedDots, len(xs)))
	}
	for i := range xs {
		xs[0].checkCompat(xs[i], "Dots")
		xs[i].checkCompat(ys[i], "Dots")
	}
	return FusedSweep(len(xs), func(lo, hi int) (part Partials) {
		for j, xv := range xs {
			x, y := xv.Data, ys[j].Data
			var acc float64
			for i := lo; i < hi; i++ {
				acc += x[i] * y[i]
			}
			part[j] = acc
		}
		return part
	}, xs[0])
}
