package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"odinhpc/internal/exec"
)

// minBeyond is how many samples must lie above a reported tail percentile.
const minBeyond = 10

// tailQuantile is the percentile rule: the highest quantile, at most p99,
// that leaves at least minBeyond of n samples above it. It never reports
// below the median; with fewer than 2*minBeyond samples the median is the
// tail.
func tailQuantile(n int) float64 {
	q := 1 - float64(minBeyond)/float64(n)
	if q > 0.99 {
		q = 0.99
	}
	if q < 0.5 {
		q = 0.5
	}
	return q
}

// quantile returns the nearest-rank q-quantile of xs (which it sorts).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	k := int(float64(len(xs))*q+0.999999999) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(xs) {
		k = len(xs) - 1
	}
	return xs[k]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// endToEnd builds the end-to-end metric set from the set-up times (s),
// the verified operations' latencies (ms), the length of the timed phase
// (s), all as measured, and the peak RSS, read during or right after the
// timed phase and before any checking. The times are reported at the
// reference speed.
func endToEnd(w io.Writer, cal *calibration, setups, lat []float64, wall, rss float64) map[string]metric {
	f := cal.factor()
	q := tailQuantile(len(lat))
	p50 := median(lat)
	tail := quantile(lat, q)
	fmt.Fprintf(w, "# %d verified operations in %.2fs; latency_tail_ms is p%.4g (>= %d samples beyond it when n >= %d)\n",
		len(lat), wall, 100*q, minBeyond, 2*minBeyond)
	fmt.Fprintf(w, "# set-up runs s %.4g\n", setups)
	fmt.Fprintf(w, "# calibration: %v\n", cal)
	return map[string]metric{
		"setup_s":          {median(setups) * f, "s"},
		"throughput_ops_s": {float64(len(lat)) / (wall * f), "ops/s"},
		"latency_p50_ms":   {p50 * f, "ms"},
		"latency_tail_ms":  {tail * f, "ms"},
		"peak_rss_mb":      {rss, "MB"},
	}
}

// releaseGarbage returns the previous set-up repetition's memory to the
// OS, so that peak RSS measures one set-up plus the timed phase rather than
// the benchmark's repetitions piling up before a collection.
func releaseGarbage() {
	runtime.GC()
	debug.FreeOSMemory()
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, fmt.Errorf("peak RSS: %w", err)
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// printConfig writes the configuration record: numbers compare only
// between runs with the same record.
func printConfig(w io.Writer, workload string, cfg runConfig) {
	rec := map[string]any{
		"workload":   workload,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"trace":      cfg.trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"exec_pool":  exec.Default().Workers(),
		"cpu_model":  cpuModel(),
		"go_version": runtime.Version(),
		// times are reported at the speed where the calibration kernel
		// takes this long; each run logs its own kernel median
		"calibration_ref_ms": calRefMs,
	}
	switch workload {
	case "batch-cg":
		rec["transport"] = "tcp"
		rec["ranks"] = cgRanks
		rec["problem"] = fmt.Sprintf("laplace3d %d^3, cg rtol %g, x0=0, rhs random(seed)", cgEdge, cgTol)
	default:
		rec["transport"] = "inproc"
		rec["groups_x_ranks"] = fmt.Sprintf("%dx%d", serveGroups, serveRanks)
		rec["clients"] = serveClients
		rec["loop"] = "closed, one tenant per client"
		if workload == "serve-solve" {
			rec["mix"] = solveMixDoc
		} else {
			rec["mix"] = exprMixDoc
		}
	}
	b, _ := json.Marshal(rec) // a map of plain values always marshals
	fmt.Fprintf(w, "# config %s\n", b)
}
