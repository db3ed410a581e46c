package comm

import (
	"fmt"

	"odinhpc/internal/trace"
)

// Number constrains the element types usable with reduction collectives.
type Number interface {
	~int | ~int32 | ~int64 | ~float32 | ~float64
}

// Op identifies a reduction operation for Reduce/Allreduce/Scan.
type Op int

// Reduction operations.
const (
	OpSum Op = iota
	OpProd
	OpMin
	OpMax
)

func (op Op) String() string {
	switch op {
	case OpSum:
		return "sum"
	case OpProd:
		return "prod"
	case OpMin:
		return "min"
	case OpMax:
		return "max"
	}
	return fmt.Sprintf("Op(%d)", int(op))
}

func applyOp[T Number](op Op, a, b T) T {
	switch op {
	case OpSum:
		return a + b
	case OpProd:
		return a * b
	case OpMin:
		if b < a {
			return b
		}
		return a
	case OpMax:
		if b > a {
			return b
		}
		return a
	}
	panic("comm: unknown reduction op")
}

// nextColl returns a fresh tag namespace for one collective call. Collectives
// are SPMD operations: every rank must call them in the same order, so the
// per-rank sequence numbers stay synchronized without communication. It is
// also the fault layer's crash point: a plan that crashes this rank at this
// collective index unwinds here, before any round of the collective runs.
func (c *Comm) nextColl() int {
	c.jitter(jitterColl)
	c.collSeq++
	c.crashCheck()
	return c.collSeq
}

// collTag builds a point-to-point tag private to collective seq and round,
// kept disjoint from user tags by being strongly negative.
func collTag(seq, round int) int { return -(seq<<8 | round) - 1000 }

// nopEnd is the shared no-op returned by collSpan when tracing is off, so
// the disabled path costs one atomic load and zero allocations.
var nopEnd = func() {}

// collSpan opens a trace span for one collective phase on this rank and
// returns its completion function, meant for the idiom
//
//	seq := c.nextColl()
//	defer c.collSpan("bcast", seq)()
//
// Nested composite collectives (Allreduce = Reduce + Bcast) produce nested
// spans, which the timeline renders as a phase breakdown.
func (c *Comm) collSpan(name string, seq int) func() {
	s := trace.Active()
	if s == nil {
		return nopEnd
	}
	t0 := s.Now()
	return func() {
		s.Emit(trace.Event{Kind: trace.KindColl, Rank: int32(c.rank), Worker: -1,
			Peer: -1, Tag: -1, Start: t0, Dur: s.Now() - t0, A: int64(seq), Label: name})
	}
}

// Barrier blocks until every rank has entered it, using a dissemination
// pattern with ceil(log2 P) rounds.
func (c *Comm) Barrier() {
	seq := c.nextColl()
	defer c.collSpan("barrier", seq)()
	round := 0
	//lint:allow p2pmatch Dissemination barrier with run-time sequence tags; the conformance, chaos, and stress suites pin it
	for k := 1; k < c.size; k <<= 1 {
		dst := (c.rank + k) % c.size
		src := (c.rank - k + c.size) % c.size
		sendSlice(c, dst, collTag(seq, round), []byte{1})
		c.Recv(src, collTag(seq, round))
		round++
	}
}

// Bcast replicates root's buf on every rank, in place, over a binomial tree.
// All ranks must pass a buffer of the same length.
func Bcast[T any](c *Comm, root int, buf []T) {
	if got := bcast(c, root, buf, len(buf)); c.rank != root {
		copy(buf, got)
	}
}

// bcast is the binomial-tree broadcast behind Bcast and Allreduce. Root
// sends buf; every other rank returns the slice it received from its
// parent, which it owns, after forwarding it to its children. n is the
// length every rank expects.
func bcast[T any](c *Comm, root int, buf []T, n int) []T {
	seq := c.nextColl()
	defer c.collSpan("bcast", seq)()
	// Work in a rotated rank space where root is 0.
	vr := (c.rank - root + c.size) % c.size
	//lint:allow p2pmatch Binomial-tree bcast keyed by a run-time root and sequence tag; the conformance suites pin it
	if vr != 0 {
		// Receive from parent.
		parent := ((vr - 1) / 2)
		src := (parent + root) % c.size
		data := c.Recv(src, collTag(seq, 0)).([]T)
		if len(data) != n {
			panic(fmt.Sprintf("comm: Bcast length mismatch: root sent %d, rank %d expects %d", len(data), c.rank, n))
		}
		buf = data
	}
	// Forward to children.
	for _, child := range []int{2*vr + 1, 2*vr + 2} {
		if child < c.size {
			dst := (child + root) % c.size
			sendSlice(c, dst, collTag(seq, 0), buf)
		}
	}
	return buf
}

// BcastScalar replicates root's value on every rank and returns it.
func BcastScalar[T any](c *Comm, root int, v T) T {
	buf := []T{v}
	Bcast(c, root, buf)
	return buf[0]
}

// Reduce combines equal-length slices element-wise across ranks with op and
// returns the result at root; other ranks receive nil. The input is never
// modified and the result never aliases it.
func Reduce[T Number](c *Comm, root int, in []T, op Op) []T {
	seq := c.nextColl()
	defer c.collSpan("reduce", seq)()
	// acc is the running partial. It starts as the caller's in and, from the
	// first receive on, is that received buffer, which this rank owns and
	// combines into in place.
	acc, owned := in, false
	vr := (c.rank - root + c.size) % c.size
	// Binomial tree: in round k, virtual ranks with bit k set send to vr-2^k.
	//lint:allow p2pmatch Binomial-tree reduce keyed by a run-time root and sequence tag; the conformance suites pin it
	for k := 1; k < c.size; k <<= 1 {
		if vr&k != 0 {
			dst := ((vr - k) + root) % c.size
			sendSlice(c, dst, collTag(seq, 0), acc)
			return nil
		}
		if vr+k < c.size {
			src := ((vr + k) + root) % c.size
			data := c.Recv(src, collTag(seq, 0)).([]T)
			if len(data) != len(acc) {
				panic("comm: Reduce length mismatch across ranks")
			}
			for i := range data {
				data[i] = applyOp(op, acc[i], data[i])
			}
			acc, owned = data, true
		}
	}
	if c.rank != root {
		return nil
	}
	if !owned {
		// Root received nothing (P = 1): the result must still be a copy.
		acc = append([]T(nil), in...)
	}
	return acc
}

// ReduceScalar reduces one value per rank to root; other ranks get the zero value.
func ReduceScalar[T Number](c *Comm, root int, v T, op Op) T {
	out := Reduce(c, root, []T{v}, op)
	if out == nil {
		var zero T
		return zero
	}
	return out[0]
}

// Allreduce combines equal-length slices element-wise across ranks with op
// and returns the full result on every rank.
func Allreduce[T Number](c *Comm, in []T, op Op) []T {
	// Non-root ranks adopt the broadcast buffer they receive.
	return bcast(c, 0, Reduce(c, 0, in, op), len(in))
}

// AllreduceScalar reduces one value per rank and returns the result everywhere.
func AllreduceScalar[T Number](c *Comm, v T, op Op) T {
	return Allreduce(c, []T{v}, op)[0]
}

// Gather collects each rank's slice at root. At root the result is indexed by
// source rank (possibly ragged); other ranks receive nil.
func Gather[T any](c *Comm, root int, in []T) [][]T {
	seq := c.nextColl()
	defer c.collSpan("gather", seq)()
	//lint:allow p2pmatch Root fan-in with run-time sequence tags; the conformance suites pin it
	if c.rank != root {
		sendSlice(c, root, collTag(seq, 0), in)
		return nil
	}
	out := make([][]T, c.size)
	local := make([]T, len(in))
	copy(local, in)
	out[root] = local
	for i := 0; i < c.size-1; i++ {
		m := c.RecvMsg(AnySource, collTag(seq, 0))
		out[m.Src] = m.Payload.([]T)
	}
	return out
}

// Allgather collects each rank's slice on every rank, indexed by source rank.
// Slices may have different lengths (the "v" variant is the only variant).
func Allgather[T any](c *Comm, in []T) [][]T {
	seq := c.nextColl()
	defer c.collSpan("allgather", seq)()
	out := make([][]T, c.size)
	local := make([]T, len(in))
	copy(local, in)
	out[c.rank] = local
	// Ring: pass blocks around size-1 times.
	right := (c.rank + 1) % c.size
	left := (c.rank - 1 + c.size) % c.size
	cur := c.rank
	//lint:allow p2pmatch Ring allgather with run-time sequence tags; the conformance suites pin it
	for step := 0; step < c.size-1; step++ {
		sendSlice(c, right, collTag(seq, step), out[cur])
		cur = (cur - 1 + c.size) % c.size
		out[cur] = c.Recv(left, collTag(seq, step)).([]T)
	}
	return out
}

// AllgatherFlat concatenates every rank's slice in rank order on every rank.
func AllgatherFlat[T any](c *Comm, in []T) []T {
	parts := Allgather(c, in)
	var n int
	for _, p := range parts {
		n += len(p)
	}
	out := make([]T, 0, n)
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// Scatter distributes parts[i] from root to rank i and returns each rank's
// part. Only root's parts argument is consulted; it must have length Size.
func Scatter[T any](c *Comm, root int, parts [][]T) []T {
	seq := c.nextColl()
	defer c.collSpan("scatter", seq)()
	//lint:allow p2pmatch Root fan-out with run-time sequence tags; the conformance suites pin it
	if c.rank == root {
		if len(parts) != c.size {
			panic(fmt.Sprintf("comm: Scatter needs %d parts, got %d", c.size, len(parts)))
		}
		for dst := 0; dst < c.size; dst++ {
			if dst != root {
				sendSlice(c, dst, collTag(seq, 0), parts[dst])
			}
		}
		local := make([]T, len(parts[root]))
		copy(local, parts[root])
		return local
	}
	return c.Recv(root, collTag(seq, 0)).([]T)
}

// Alltoall sends parts[d] to rank d from every rank and returns the received
// blocks indexed by source rank. parts must have length Size; blocks may be
// ragged, and empty blocks are transferred as empty slices.
func Alltoall[T any](c *Comm, parts [][]T) [][]T {
	seq := c.nextColl()
	defer c.collSpan("alltoall", seq)()
	if len(parts) != c.size {
		panic(fmt.Sprintf("comm: Alltoall needs %d parts, got %d", c.size, len(parts)))
	}
	//lint:allow p2pmatch Pairwise exchange with run-time sequence tags; the conformance suites pin it
	for dst := 0; dst < c.size; dst++ {
		if dst == c.rank {
			continue
		}
		sendSlice(c, dst, collTag(seq, 0), parts[dst])
	}
	out := make([][]T, c.size)
	local := make([]T, len(parts[c.rank]))
	copy(local, parts[c.rank])
	out[c.rank] = local
	for i := 0; i < c.size-1; i++ {
		m := c.RecvMsg(AnySource, collTag(seq, 0))
		out[m.Src] = m.Payload.([]T)
	}
	return out
}

// Scan computes the inclusive prefix reduction across ranks: rank r receives
// op(in_0, ..., in_r), element-wise. Runs as a linear chain.
func Scan[T Number](c *Comm, in []T, op Op) []T {
	seq := c.nextColl()
	defer c.collSpan("scan", seq)()
	acc := make([]T, len(in))
	copy(acc, in)
	//lint:allow p2pmatch Inclusive-scan chain with run-time sequence tags; the conformance suites pin it
	if c.rank > 0 {
		prev := c.Recv(c.rank-1, collTag(seq, 0)).([]T)
		if len(prev) != len(acc) {
			panic("comm: Scan length mismatch across ranks")
		}
		for i := range acc {
			acc[i] = applyOp(op, prev[i], acc[i])
		}
	}
	if c.rank < c.size-1 {
		sendSlice(c, c.rank+1, collTag(seq, 0), acc)
	}
	return acc
}

// ExclusiveScanScalar returns op over the values of all lower ranks; rank 0
// receives the identity for op (0 for sum, 1 for prod, and the rank's own
// value for min/max, which has no natural identity without type bounds).
func ExclusiveScanScalar[T Number](c *Comm, v T, op Op) T {
	inc := Scan(c, []T{v}, op)[0]
	switch op {
	case OpSum:
		return inc - v
	case OpProd:
		// Dividing inc by v breaks on zeros (and rounds differently from
		// the true lower-rank product) — and any data-dependent branch
		// here would diverge the communication pattern across ranks and
		// deadlock. Products therefore always use the shifted chain, with
		// rank 0 receiving the multiplicative identity.
		seq := c.nextColl()
		//lint:allow p2pmatch Shifted exclusive-scan chain with run-time sequence tags; the conformance suites pin it
		if c.rank < c.size-1 {
			sendSlice(c, c.rank+1, collTag(seq, 0), []T{inc})
		}
		if c.rank == 0 {
			var one T = 1
			return one
		}
		return c.Recv(c.rank-1, collTag(seq, 0)).([]T)[0]
	default:
		// Min/max have no inverse; rerun as a shifted chain.
		seq := c.nextColl()
		if c.rank < c.size-1 {
			sendSlice(c, c.rank+1, collTag(seq, 0), []T{inc})
		}
		if c.rank == 0 {
			return v
		}
		return c.Recv(c.rank-1, collTag(seq, 0)).([]T)[0]
	}
}
