package tpetra_test

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"odinhpc/internal/comm"
	"odinhpc/internal/distmap"
	"odinhpc/internal/exec"
	"odinhpc/internal/tpetra"
)

// withPool runs fn with the process-wide exec engine at the given pool
// size, restoring the previous engine afterwards.
func withPool(workers int, fn func()) {
	prev := exec.Default()
	exec.SetDefaultWorkers(workers)
	defer exec.SetDefault(prev)
	fn()
}

// runOn runs fn on a fresh communicator of each size in ps, failing the
// test on any error.
func runOn(t *testing.T, ps []int, fn func(c *comm.Comm) error) {
	t.Helper()
	for _, p := range ps {
		if err := comm.Run(p, fn); err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
	}
}

// TestDotsBitwise pins every entry of Dots, and of a FusedSweep that
// accumulates in Dot's shape, to a separate Dot call, bit for bit. The
// lengths cover one exec chunk and several.
func TestDotsBitwise(t *testing.T) {
	for _, workers := range []int{1, 2} {
		withPool(workers, func() {
			runOn(t, []int{1, 2, 3, 4}, func(c *comm.Comm) error {
				for _, n := range []int{37, 3*exec.DefaultGrain + 101} {
					m := distmap.NewBlock(n, c.Size())
					vs := make([]*tpetra.Vector, 4)
					for i := range vs {
						vs[i] = tpetra.NewVector(c, m)
						vs[i].Randomize(int64(17*i + n))
					}
					xs := []*tpetra.Vector{vs[0], vs[1], vs[2], vs[3]}
					ys := []*tpetra.Vector{vs[1], vs[1], vs[3], vs[0]}
					got := tpetra.Dots(xs, ys)
					a, b := vs[0].Data, vs[1].Data
					fused := tpetra.FusedSweep(2, func(lo, hi int) (part tpetra.Partials) {
						var ab, bb float64
						for i := lo; i < hi; i++ {
							ab += a[i] * b[i]
							bb += b[i] * b[i]
						}
						part[0], part[1] = ab, bb
						return part
					}, vs[0], vs[1])
					for i := range xs {
						want := xs[i].Dot(ys[i])
						if math.Float64bits(got[i]) != math.Float64bits(want) {
							return fmt.Errorf("pool=%d n=%d: tpetra.Dots[%d] = %x, Dot = %x", workers, n, i, got[i], want)
						}
						if i < len(fused) && math.Float64bits(fused[i]) != math.Float64bits(want) {
							return fmt.Errorf("pool=%d n=%d: tpetra.FusedSweep[%d] = %x, Dot = %x", workers, n, i, fused[i], want)
						}
					}
					if len(got) != len(xs) || len(fused) != 2 {
						return fmt.Errorf("lengths: tpetra.Dots %d, tpetra.FusedSweep %d", len(got), len(fused))
					}
				}
				return nil
			})
		})
	}
}

// TestFusedSweepLocal checks that a sweep with no inner products updates in
// place, returns nil and sends nothing.
func TestFusedSweepLocal(t *testing.T) {
	runOn(t, []int{1, 3}, func(c *comm.Comm) error {
		m := distmap.NewBlock(50, c.Size())
		x := tpetra.NewVector(c, m)
		x.FillFromGlobal(func(g int) float64 { return float64(g) })
		before := ownSends(c)
		d := x.Data
		out := tpetra.FusedSweep(0, func(lo, hi int) (part tpetra.Partials) {
			for i := lo; i < hi; i++ {
				d[i] *= 2
			}
			return part
		}, x)
		if sent := ownSends(c) - before; out != nil || sent != 0 {
			return fmt.Errorf("tpetra.FusedSweep(0) returned %v and sent %d messages", out, sent)
		}
		for l, v := range x.Data {
			if g := m.LocalToGlobal(c.Rank(), l); v != 2*float64(g) {
				return fmt.Errorf("x[%d] = %g, want %g", g, v, 2*float64(g))
			}
		}
		return nil
	})
}

// ownSends returns the messages this rank has sent on c: its own row of
// comm.Stats, which only its goroutine writes.
func ownSends(c *comm.Comm) int64 {
	st := c.Stats()
	var n int64
	for dst := 0; dst < st.Size; dst++ {
		n += st.MsgCount(c.Rank(), dst)
	}
	return n
}

// TestDotsPanics checks the argument validation of Dots and FusedSweep:
// operand lists of different lengths, non-conformable maps and an
// out-of-range count of inner products panic with a "tpetra: <op> ..."
// message.
func TestDotsPanics(t *testing.T) {
	err := comm.Run(2, func(c *comm.Comm) error {
		x := tpetra.NewVector(c, distmap.NewBlock(10, 2))
		y := tpetra.NewVector(c, distmap.NewCyclic(10, 2))
		none := func(lo, hi int) (part tpetra.Partials) { return part }
		five := []*tpetra.Vector{x, x, x, x, x}
		for _, tc := range []struct {
			want string
			call func()
		}{
			{"tpetra: Dots requires operand lists of equal length (2 vs 1)", func() { tpetra.Dots([]*tpetra.Vector{x, x}, []*tpetra.Vector{x}) }},
			{"tpetra: Dots requires conformable vectors", func() { tpetra.Dots([]*tpetra.Vector{x}, []*tpetra.Vector{y}) }},
			{"tpetra: Dots requires conformable vectors", func() { tpetra.Dots([]*tpetra.Vector{x, y}, []*tpetra.Vector{x, y}) }},
			{"tpetra: Dots carries 1..4 inner products, got 5", func() { tpetra.Dots(five, five) }},
			{"tpetra: Dots carries 1..4 inner products, got 0", func() { tpetra.Dots(nil, nil) }},
			{"tpetra: FusedSweep requires conformable vectors", func() { tpetra.FusedSweep(1, none, x, y) }},
			{"tpetra: FusedSweep carries 0..4 inner products, got 5", func() { tpetra.FusedSweep(5, none, x) }},
		} {
			msg := func() (msg string) {
				defer func() { msg = fmt.Sprint(recover()) }()
				tc.call()
				return ""
			}()
			if !strings.HasPrefix(msg, tc.want) {
				return fmt.Errorf("panic %q, want prefix %q", msg, tc.want)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
