package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"
)

// The host this benchmark shares changes speed by tens of percent within
// minutes: other tenants' load and frequency scaling move every timing of a
// run together. A run therefore calibrates between its timed stretches: it
// times a fixed CPU kernel, which belongs to the benchmark and not to the
// program, on every core while the program is idle. Every time metric is
// reported at the reference speed: measured time x calRefMs / the median
// kernel time of the run. A change to the program moves its times and
// leaves the kernel's where they were.
const (
	calRefMs   = 7.0     // the kernel's time on the reference host (see README.md)
	calReps    = 5       // kernel runs per calibration
	calWorkers = 2       // one per core, as the workloads load both
	calSweep   = 1 << 19 // float64s a worker sweeps: 4 MiB, above a 2 MiB L2
	calRounds  = 10      // sweeps per kernel run
)

// calBufs are the workers' sweep buffers, allocated once so a calibration
// allocates nothing and does not depend on the program's heap.
var calBufs = func() [][]float64 {
	bufs := make([][]float64, calWorkers)
	for w := range bufs {
		bufs[w] = make([]float64, calSweep)
		for i := range bufs[w] {
			bufs[w][i] = float64(i%97) * 0.01
		}
	}
	return bufs
}()

// calSink keeps the kernel's results alive.
var calSink [calWorkers]float64

// calKernel is one worker's fixed work: streaming sweeps over its buffer
// (memory bandwidth), a dependent floating-point chain (latency) and a
// branchy integer hash (the shape of parsing and dispatch code). Most of
// its time is the sweeps: on the shared host, the workloads' times follow
// the memory traffic of other tenants more than their CPU use.
func calKernel(w int) {
	buf := calBufs[w]
	acc := 0.0
	for r := 0; r < calRounds; r++ {
		s0, s1 := 0.0, 0.0
		for i := 0; i+1 < len(buf); i += 2 {
			s0 += buf[i]
			s1 += buf[i+1]
		}
		acc += s0 - s1
	}
	x := 1.0
	for i := 0; i < 200_000; i++ {
		x = x*0.999999 + 1e-7
	}
	h := uint64(14695981039346656037)
	for i := 0; i < 300_000; i++ {
		h ^= uint64(i)
		h *= 1099511628211
		if h&7 == 3 {
			h += h >> 17
		}
	}
	calSink[w] = acc + x + float64(h>>40)
}

// calibration collects a run's kernel times.
type calibration struct{ times []float64 }

// run times calReps runs of the kernel on calWorkers goroutines at once.
// It first finishes any garbage collection in progress, so that the
// collector's workers, whose load depends on the program, do not share the
// cores with the kernel.
func (c *calibration) run() {
	runtime.GC()
	for r := 0; r < calReps; r++ {
		var wg sync.WaitGroup
		t0 := time.Now()
		for w := 0; w < calWorkers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				calKernel(w)
			}(w)
		}
		wg.Wait()
		c.times = append(c.times, ms(time.Since(t0)))
	}
}

// median is the run's median kernel time, in ms.
func (c *calibration) median() float64 { return median(append([]float64(nil), c.times...)) }

// factor converts a time measured in this run to the reference speed.
func (c *calibration) factor() float64 { return calRefMs / c.median() }

// String reports the calibration for the run's log.
func (c *calibration) String() string {
	return fmt.Sprintf("%d kernel runs, median %.4g ms (reference %g ms), times scaled by %.4g",
		len(c.times), c.median(), calRefMs, c.factor())
}
