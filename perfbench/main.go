// Command perfbench is the repository benchmark. It runs one named workload
// against the odinhpc stack, checks every answer it gets back, and prints as
// its last line one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones (BENCHMARK.json
// "end_to_end"); with -trace 1 they are the per-layer ones ("per_layer"),
// and a per-workload time budget is printed above the result line.
//
//	go run . -workload serve-solve -seed 1 -seconds 10 -trace 0
//
// The benchmark drives the program only through its public functions and
// the trace spans it already emits; see README.md for the workloads, the
// layer definitions and the predictions they encode.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"sort"
	"time"
)

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runConfig is what every workload receives from the command line.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	out     io.Writer // human-readable report lines (the result line is printed by run)
}

// outcome is a workload's report: operation counts, the first failures seen
// (for the log), and the metrics of the requested kind.
type outcome struct {
	attempted int64
	failed    int64
	failures  []string
	metrics   map[string]metric
}

// fail records one failed, refused or wrong operation.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.failures) < 10 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(runConfig) (*outcome, error){
	"serve-solve": func(cfg runConfig) (*outcome, error) {
		return runServe(cfg, func(seed int64) mix { return newSolveMix(seed) })
	},
	"serve-expr": func(cfg runConfig) (*outcome, error) {
		return runServe(cfg, func(seed int64) mix { return newExprMix(seed) })
	},
	"batch-cg": runBatchCG,
}

// endToEndNames and layerNames are the metric sets BENCHMARK.json declares;
// a run must report exactly one of them.
var endToEndNames = []string{"setup_s", "throughput_ops_s", "latency_p50_ms", "latency_tail_ms", "peak_rss_mb"}

var layerNames = []string{
	"serve.outside_job_us", "serve.validate_us", "serve.queue_wait_us", "serve.job_ms",
	"serve.lane_skew_us", "serve.warm_p50_ms", "serve.cold_p50_ms", "serve.rejected",
	"serve.group_restarts",
	"solvers.iterations", "solvers.iter_us", "solvers.allreduce_per_iter", "solvers.p1_iter_us",
	"comm.allreduce_us", "comm.recv_wait_share", "comm.msgs_per_iter", "comm.bytes_per_iter",
	"comm.parallel_efficiency",
	"tpetra.apply_us", "tpetra.apply_share", "tpetra.halo_us",
	"sparse.spmv_gbs",
	"exec.calls_per_op", "exec.items_per_call", "exec.busy_share",
	"fusion.plan_hit_ratio", "fusion.plan_misses", "fusion.cap_crossings", "fusion.vm_gbs",
	"trace.overhead", "trace.dropped",
	"budget.unattributed_share",
}

// metricName is the name rule BENCHMARK.json imposes on every metric.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run parses the flags, runs the workload and prints the result line. It
// returns the process exit code: 0 only when every operation was checked
// correct, 1 when a check failed, 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: serve-solve, serve-expr or batch-cg")
	seed := fs.Int64("seed", 1, "seed the workload inputs are generated from")
	seconds := fs.Float64("seconds", 10, "measured seconds")
	traceOn := fs.Int("trace", 0, "1 runs the traced per-layer measurement instead of the end-to-end one")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	drive, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload %s, -seconds > 0 and -trace 0|1\n", workloadList())
		return 2
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *traceOn == 1, out: stdout}
	printConfig(stdout, *name, cfg)
	start := time.Now()
	o, err := drive(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	want := endToEndNames
	if cfg.trace {
		want = layerNames
	}
	if err := checkMetrics(o.metrics, want); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	printMetrics(stdout, o)
	for _, f := range o.failures {
		fmt.Fprintln(stderr, "perfbench: FAIL:", f)
	}
	res := result{Correct: o.failed == 0 && o.attempted > 0, Attempted: o.attempted, Failed: o.failed, Metrics: o.metrics}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "# %s seed=%d trace=%v finished in %.1fs\n", *name, *seed, cfg.trace, time.Since(start).Seconds())
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadList() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return fmt.Sprint(names)
}

// checkMetrics verifies a run reports exactly the declared set, each under
// a valid name with a finite value.
func checkMetrics(got map[string]metric, want []string) error {
	if len(got) != len(want) {
		return fmt.Errorf("reported %d metrics, want %d", len(got), len(want))
	}
	for _, n := range want {
		m, ok := got[n]
		if !ok {
			return fmt.Errorf("metric %s missing", n)
		}
		if !metricName.MatchString(n) {
			return fmt.Errorf("metric name %q breaks the naming rule", n)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is not finite", n)
		}
	}
	return nil
}

// printMetrics writes one "name value unit" line per metric, plus the
// error rate that the result line carries as failed/attempted.
func printMetrics(w io.Writer, o *outcome) {
	names := make([]string, 0, len(o.metrics))
	for n := range o.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-28s %14.6g %s\n", n, o.metrics[n].Value, o.metrics[n].Unit)
	}
	rate := 0.0
	if o.attempted > 0 {
		rate = float64(o.failed) / float64(o.attempted)
	}
	fmt.Fprintf(w, "%-28s %14.6g %s (%d of %d)\n", "error_rate", rate, "ratio", o.failed, o.attempted)
}
