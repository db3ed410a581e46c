package main

import (
	"fmt"
	"io"

	"odinhpc/internal/exec"
	"odinhpc/internal/trace"
)

// layerUnits gives every per-layer metric its unit. A metric a workload
// does not exercise (a serve metric on batch-cg, a solver metric on
// serve-expr) reports 0: the layer did no such work in that run.
var layerUnits = map[string]string{
	"serve.outside_job_us": "us", "serve.validate_us": "us", "serve.queue_wait_us": "us",
	"serve.job_ms": "ms", "serve.lane_skew_us": "us", "serve.warm_p50_ms": "ms",
	"serve.cold_p50_ms": "ms", "serve.rejected": "count", "serve.group_restarts": "count",
	"solvers.iterations": "count", "solvers.iter_us": "us", "solvers.allreduce_per_iter": "count",
	"solvers.p1_iter_us": "us",
	"comm.allreduce_us":  "us", "comm.recv_wait_share": "ratio", "comm.msgs_per_iter": "count",
	"comm.bytes_per_iter": "bytes", "comm.parallel_efficiency": "ratio",
	"tpetra.apply_us": "us", "tpetra.apply_share": "ratio", "tpetra.halo_us": "us",
	"sparse.spmv_gbs":   "GB/s",
	"exec.calls_per_op": "count", "exec.items_per_call": "count", "exec.busy_share": "ratio",
	"fusion.plan_hit_ratio": "ratio", "fusion.plan_misses": "count", "fusion.cap_crossings": "count",
	"fusion.vm_gbs":  "GB/s",
	"trace.overhead": "ratio", "trace.dropped": "count",
	"budget.unattributed_share": "ratio",
}

// layerMetrics collects one traced run's per-layer metrics.
type layerMetrics struct{ m map[string]metric }

func newLayerMetrics() *layerMetrics { return &layerMetrics{m: map[string]metric{}} }

func (l *layerMetrics) set(name string, v float64) {
	unit, ok := layerUnits[name]
	if !ok {
		panic("perfbench: undeclared layer metric " + name)
	}
	l.m[name] = metric{v, unit}
}

// done fills every metric the workload did not exercise with 0.
func (l *layerMetrics) done() map[string]metric {
	for _, n := range layerNames {
		if _, ok := l.m[n]; !ok {
			l.m[n] = metric{0, layerUnits[n]}
		}
	}
	return l.m
}

// execDeltas derives the exec-pool metrics from two snapshots around a
// phase of ops operations during which ranks rank goroutines were calling
// into the pool. busy_share is the summed wall time of pool calls over the
// ranks' combined wall time.
func (l *layerMetrics) execDeltas(a, b exec.Stats, ops float64, wall float64, ranks int) {
	calls := float64(b.Calls - a.Calls)
	l.set("exec.calls_per_op", calls/ops)
	if calls > 0 {
		l.set("exec.items_per_call", float64(b.Items-a.Items)/calls)
	}
	l.set("exec.busy_share", float64(b.Nanos-a.Nanos)/(wall*float64(ranks)))
}

// progCacheCap mirrors fusion's compiled-program cache bound: the miss that
// finds the cache this full drops every entry.
const progCacheCap = 512

// capCrossings is how many times the cache was dropped after misses
// compilations since it was last reset.
func capCrossings(misses int64) int64 {
	if misses <= 0 {
		return 0
	}
	return (misses - 1) / progCacheCap
}

// spans accumulates the trace-derived layer numbers over trace windows.
type spans struct {
	allreduce        []float64 // us per allreduce (reduce span + its bcast span), every rank
	gather           []float64 // us per tpetra gather (halo exchange), every rank
	allreduceRank0Us float64   // summed on rank 0's lane
	gatherRank0Us    float64
	reduceRank0      int // reduce spans on rank 0's lane: one per Allreduce, which roots its Reduce at 0
	recvNs           int64
	chunkNs          int64 // summed exec chunk time, every worker
	vmNs             int64 // summed fused-sweep span time
	vmElems          int64 // elements those sweeps covered
	dropped          int64
	events           int
	windows          int
	fullest          int // most events one lane held in one window
}

// pairGap bounds the gap between an allreduce's reduce span ending and its
// bcast span starting on the same rank; Allreduce runs them back to back.
const pairGap = 50_000 // ns

// add folds one window's events into the totals. Rank lanes are keyed by
// rank alone, so under a group pool the rank-0 lane interleaves every
// group's rank 0; an allreduce is recognised as a reduce span followed on
// the same lane, within pairGap, by the bcast span of the next collective
// sequence number.
func (s *spans) add(evs []trace.Event, dropped int64) {
	s.dropped += dropped
	s.events += len(evs)
	s.windows++
	perLane := map[int32]int{}
	for _, ev := range evs {
		perLane[ev.Rank]++
		if perLane[ev.Rank] > s.fullest {
			s.fullest = perLane[ev.Rank]
		}
	}
	type key struct {
		rank int32
		seq  int64
	}
	pending := map[key][]trace.Event{}
	for _, ev := range evs {
		switch ev.Kind {
		case trace.KindRecv:
			s.recvNs += ev.Dur
		case trace.KindChunk:
			s.chunkNs += ev.Dur
		case trace.KindGather:
			s.gather = append(s.gather, float64(ev.Dur)/1e3)
			if ev.Rank == 0 {
				s.gatherRank0Us += float64(ev.Dur) / 1e3
			}
		case trace.KindVM:
			s.vmNs += ev.Dur
			s.vmElems += ev.B - ev.A
		case trace.KindColl:
			switch ev.Label {
			case "reduce":
				if ev.Rank == 0 {
					s.reduceRank0++
				}
				k := key{ev.Rank, ev.A + 1}
				pending[k] = append(pending[k], ev)
			case "bcast":
				k := key{ev.Rank, ev.A}
				cands := pending[k]
				best := -1
				for i, r := range cands {
					end := r.Start + r.Dur
					if end <= ev.Start && ev.Start-end <= pairGap && (best < 0 || end > cands[best].Start+cands[best].Dur) {
						best = i
					}
				}
				if best < 0 {
					continue
				}
				r := cands[best]
				pending[k] = append(cands[:best], cands[best+1:]...)
				d := float64(ev.Start+ev.Dur-r.Start) / 1e3
				s.allreduce = append(s.allreduce, d)
				if ev.Rank == 0 {
					s.allreduceRank0Us += d
				}
			}
		}
	}
}

// traceWindow is the trace-session size for one window of a workload:
// capacity events per lane, and at most jobs operations per session, chosen
// so that no lane overflows (trace.dropped must read 0).
type traceWindow struct {
	capacity int
	jobs     int
	spans
}

func newWindows(workload string) *traceWindow {
	switch workload {
	case "serve-solve":
		return &traceWindow{capacity: 1 << 17, jobs: 16}
	case "serve-expr":
		return &traceWindow{capacity: 1 << 14, jobs: 256}
	}
	panic("perfbench: no trace window for " + workload)
}

// budget splits one operation's wall time across the layers on its
// blocking path and shows what the layers do not cover.
type budget struct {
	workload, what string
	wall           float64 // us
	names          []string
	parts          []float64
}

func newBudget(workload, what string) *budget { return &budget{workload: workload, what: what} }

func (b *budget) add(name string, us float64) {
	b.names = append(b.names, name)
	b.parts = append(b.parts, us)
}

func (b *budget) unattributed() float64 {
	u := b.wall
	for _, p := range b.parts {
		u -= p
	}
	return u
}

func (b *budget) unattributedShare() float64 {
	if b.wall <= 0 {
		return 0
	}
	return b.unattributed() / b.wall
}

func (b *budget) print(w io.Writer) {
	fmt.Fprintf(w, "# budget %s: %s = %.1f us\n", b.workload, b.what, b.wall)
	for i, n := range b.names {
		fmt.Fprintf(w, "#   %-58s %10.1f us %6.1f%%\n", n, b.parts[i], 100*b.parts[i]/b.wall)
	}
	fmt.Fprintf(w, "#   %-58s %10.1f us %6.1f%%\n", "unattributed", b.unattributed(), 100*b.unattributedShare())
}
