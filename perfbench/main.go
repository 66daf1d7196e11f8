// Command perfbench is the repository benchmark. It drives the placement
// advisor end to end on three workloads and prints every metric that
// BENCHMARK.json names. Build and run it through run.sh:
//
//	bash perfbench/run.sh --workload advise-s1 --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the last line of standard output carries the end-to-end
// metrics; with --trace 1 it carries the per-layer metrics of a separate,
// traced run. The line before it is the run's full report (environment,
// per-job and per-rate breakdowns, reconciliation). README.md describes the
// workloads and the metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// metricDef is one metric of BENCHMARK.json.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd lists the end-to-end metrics. BENCHMARK.json mirrors it (the
// self-test checks the two agree). Every workload reports every one of
// them, so each is defined for the advise and the serve workloads alike; see
// README.md for what each means on each workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"throughput_per_s", "1/s", "higher"},
	{"req_p50_ms", "ms", "lower"},
	{"req_p90_ms", "ms", "lower"},
	{"job_p50_ms", "ms", "lower"},
	{"job_p90_ms", "ms", "lower"},
	{"top1_speedup", "x", "higher"},
	{"top1_error_pct", "%", "lower"},
	{"ok_ratio", "ratio", "higher"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer lists the per-layer metrics of a traced run, grouped by the
// module they time. A workload that does not exercise a layer reports it as
// 0 (the serve metrics on the advise workloads, for example).
var perLayer = []metricDef{
	{"kernels.trace_ms", "ms", "lower"},
	{"kernels.trace_alloc_mb", "MB", "lower"},
	{"sim.profile_ms", "ms", "lower"},
	{"sim.ns_per_inst", "ns", "lower"},
	{"core.build_ms", "ms", "lower"},
	{"core.delta_us", "us", "lower"},
	{"core.full_ms", "ms", "lower"},
	{"core.delta_speedup", "x", "higher"},
	{"core.contrib_builds", "count", "lower"},
	{"core.contrib_hit_ratio", "ratio", "higher"},
	{"advisor.search_ms", "ms", "lower"},
	{"advisor.evals", "count", "lower"},
	{"advisor.eval_share", "ratio", "lower"},
	{"advisor.ms_per_eval", "ms", "lower"},
	{"advisor.spmv_greedy_search_ms", "ms", "lower"},
	{"advisor.spmv_exhaustive_search_ms", "ms", "lower"},
	{"service.handler_hit_us", "us", "lower"},
	{"service.handler_miss_us", "us", "lower"},
	{"service.handler_predict_us", "us", "lower"},
	{"service.cache_hit_ratio", "ratio", "higher"},
	{"service.shed", "count", "lower"},
	{"service.queue_wait_p50_ms", "ms", "lower"},
	{"service.queue_wait_p90_ms", "ms", "lower"},
	{"service.stage.decode_us", "us", "lower"},
	{"service.stage.cache_us", "us", "lower"},
	{"service.stage.queue_us", "us", "lower"},
	{"service.stage.search_us", "us", "lower"},
	{"service.stage.encode_us", "us", "lower"},
	{"loadgen.lag_p50_us", "us", "lower"},
	{"loadgen.lag_p99_us", "us", "lower"},
	{"loadgen.max_rps", "1/s", "higher"},
	{"go.gc_cycles", "count", "lower"},
	{"go.gc_pause_ms", "ms", "lower"},
	{"bench.trace_overhead_ratio", "x", "lower"},
	{"bench.reconcile_max_gap_pct", "%", "lower"},
	{"bench.reconcile_failures", "count", "lower"},
}

// options are one run's settings.
type options struct {
	Seed     int64
	Duration time.Duration
	Traced   bool
	// Short shrinks the workload to a smoke-sized version of itself (the
	// self-test); the metrics keep their meaning but not their stability.
	Short bool
	// GoldenPath is the advise goldens file; UpdateGoldens rewrites it from
	// the run instead of checking against it.
	GoldenPath    string
	UpdateGoldens bool
}

// outcome is what a workload hands back: counts, both metric sets, and the
// workload-specific detail that goes into the report line.
type outcome struct {
	Attempted int
	Failed    int
	// Problems lists the first failures (golden mismatches, bad statuses,
	// reconciliation misses), for the report and standard error.
	Problems []string
	E2E      map[string]float64
	Layers   map[string]float64
	Detail   any
}

// maxProblems caps the failures quoted in the report.
const maxProblems = 20

func (o *outcome) fail(format string, args ...any) {
	o.Failed++
	if len(o.Problems) < maxProblems {
		o.Problems = append(o.Problems, fmt.Sprintf(format, args...))
	}
}

type workloadFunc func(ctx context.Context, opt options) (*outcome, error)

// workloads maps each BENCHMARK.json workload to the function that runs it.
var workloads = map[string]workloadFunc{
	"advise-s1":     func(ctx context.Context, opt options) (*outcome, error) { return runAdvise(ctx, opt, adviseS1) },
	"advise-scaled": func(ctx context.Context, opt options) (*outcome, error) { return runAdvise(ctx, opt, adviseScaled) },
	"serve-mixed":   runServe,
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// environment identifies what was measured and where.
type environment struct {
	Workload     string `json:"workload"`
	Seed         int64  `json:"seed"`
	Seconds      int    `json:"seconds"`
	Trace        int    `json:"trace"`
	NProc        int    `json:"nproc"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	GoVersion    string `json:"go_version"`
	Commit       string `json:"commit"`
	SourceDigest string `json:"source_digest"`
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: advise-s1, advise-scaled or serve-mixed")
		seed     = flag.Int64("seed", 1, "seed of the generated inputs")
		seconds  = flag.Int("seconds", 20, "measurement time in seconds")
		trace    = flag.Int("trace", 0, "1 runs the traced variant and reports the per-layer metrics")
		root     = flag.String("root", ".", "repository root, hashed into the report's source digest")
		commit   = flag.String("commit", "unknown", "commit of the measured tree, when known")
		update   = flag.Bool("update-goldens", false, "rewrite goldens/advise.json from this run instead of checking against it")
	)
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %v), --seconds >= 1 and --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	// The benchmark runs in one process with at most one OS thread per CPU
	// running Go code; every worker count below derives from this.
	runtime.GOMAXPROCS(runtime.NumCPU())

	digest, err := sourceDigest(*root)
	if err != nil {
		fatal(err)
	}
	env := environment{
		Workload: *workload, Seed: *seed, Seconds: *seconds, Trace: *trace,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: *commit, SourceDigest: digest,
	}
	opt := options{
		Seed:          *seed,
		Duration:      time.Duration(*seconds) * time.Second,
		Traced:        *trace == 1,
		GoldenPath:    filepath.Join(*root, "perfbench", "goldens", "advise.json"),
		UpdateGoldens: *update,
	}
	out, err := run(context.Background(), opt)
	if err != nil {
		fatal(err)
	}
	res, err := buildResult(out, opt.Traced)
	if err != nil {
		fatal(err)
	}
	for _, p := range out.Problems {
		fmt.Fprintln(os.Stderr, "perfbench: FAIL:", p)
	}
	report, err := json.Marshal(map[string]any{"perfbench": map[string]any{
		"env": env, "attempted": out.Attempted, "failed": out.Failed,
		"problems": out.Problems, "e2e": out.E2E, "layers": out.Layers, "detail": out.Detail,
	}})
	if err != nil {
		fatal(err)
	}
	last, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(report))
	fmt.Println(string(last))
}

// buildResult selects the metric set of the run and refuses to print one
// with a missing or non-finite value.
func buildResult(out *outcome, traced bool) (*result, error) {
	defs, values := endToEnd, out.E2E
	if traced {
		defs, values = perLayer, out.Layers
	}
	res := &result{
		Correct:   out.Failed == 0,
		Attempted: out.Attempted,
		Failed:    out.Failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	if out.Attempted < 1 {
		return nil, fmt.Errorf("no operation was attempted")
	}
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is not finite: %v", d.Name, v)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return res, nil
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}
