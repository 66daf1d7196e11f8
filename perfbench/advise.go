package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"gpuhms/internal/advisor"
	"gpuhms/internal/core"
	"gpuhms/internal/gpu"
	"gpuhms/internal/kernels"
	"gpuhms/internal/obs"
	"gpuhms/internal/placement"
	"gpuhms/internal/sim"
	"gpuhms/internal/trace"
)

// adviseJob is one advise request: rank the legal placements of a bundled
// kernel at one scale on one architecture and keep the top-K. It runs the
// `hmsplace -full` pipeline: trace, sample profile, predictor, search.
type adviseJob struct {
	Arch     string
	Kernel   string
	Scale    int
	Strategy string
}

func (j adviseJob) key() string {
	return fmt.Sprintf("%s/%s/s%d/%s", j.Arch, j.Kernel, j.Scale, j.Strategy)
}

// adviseWorkload is a fixed job list run by one client in a closed loop.
type adviseWorkload struct {
	jobs []adviseJob
	// short is the number of leading jobs the self-test's short mode runs.
	short int
}

// adviseS1 spans the three registered architectures, six kernels and the
// three strategies at scale 1. Here the eviction-free fast L2 merge covers
// nearly every evaluation, so time spreads across trace, profile, build and
// search; a change to the exact merge walk should leave it unchanged.
var adviseS1 = adviseWorkload{short: 3, jobs: []adviseJob{
	{"k80", "spmv", 1, "exhaustive"},
	{"k80", "spmv", 1, "greedy"},
	{"k80", "fft", 1, "exhaustive"},
	{"k80", "md", 1, "beam-4"},
	{"k80", "kmeans", 1, "exhaustive"},
	{"k80", "stencil2d", 1, "greedy"},
	{"k80", "tablelookup", 1, "beam-4"},
	{"hbm", "spmv", 1, "greedy"},
	{"hbm", "fft", 1, "greedy"},
	{"hbm", "md", 1, "exhaustive"},
	{"hbm", "kmeans", 1, "beam-4"},
	{"hbm", "tablelookup", 1, "exhaustive"},
	{"chiplet", "spmv", 1, "beam-4"},
	{"chiplet", "fft", 1, "exhaustive"},
	{"chiplet", "md", 1, "greedy"},
	{"chiplet", "kmeans", 1, "greedy"},
	{"chiplet", "stencil2d", 1, "exhaustive"},
	{"chiplet", "tablelookup", 1, "greedy"},
}}

// adviseScaled runs the same pipeline at scales 2-4. The exact L2 merge and
// the contribution builds dominate here (a warm delta evaluation of spmv
// costs tens of times more at scale 4 than at scale 1), and trace memory
// grows faster than linearly: matrixMul's trace grows with the cube of the
// scale, which is why it stops at 3.
var adviseScaled = adviseWorkload{short: 2, jobs: []adviseJob{
	{"k80", "stencil2d", 2, "exhaustive"},
	{"k80", "spmv", 2, "greedy"},
	{"k80", "spmv", 4, "greedy"},
	{"k80", "stencil2d", 3, "greedy"},
	{"k80", "stencil2d", 4, "beam-4"},
	{"k80", "matrixMul", 2, "greedy"},
	{"k80", "matrixMul", 3, "greedy"},
}}

const (
	// topK is the ranking length every advise job keeps and checks.
	topK = 5
	// setupReps is how many times a run repeats its set-up; setup_s is the
	// median.
	setupReps = 5
	// Reconciliation tolerance: the four layer times of a job must cover its
	// end-to-end time to within this share plus this floor.
	reconcileShare = 0.02
	reconcileFloor = 500 * time.Microsecond
)

// archesOf lists the distinct architectures of a job list, in order.
func archesOf(jobs []adviseJob) []string {
	var out []string
	seen := map[string]bool{}
	for _, j := range jobs {
		if !seen[j.Arch] {
			seen[j.Arch] = true
			out = append(out, j.Arch)
		}
	}
	return out
}

// trainAdvisors trains one advisor per architecture: the set-up a user pays
// before the first advice.
func trainAdvisors(arches []string) (map[string]*advisor.Advisor, error) {
	advs := make(map[string]*advisor.Advisor, len(arches))
	for _, a := range arches {
		cfg, err := gpu.Lookup(a)
		if err != nil {
			return nil, err
		}
		adv, err := advisor.New(cfg)
		if err != nil {
			return nil, fmt.Errorf("training %s: %w", a, err)
		}
		advs[a] = adv
	}
	return advs, nil
}

// jobRun is one executed job, with its layer boundaries timed from outside:
// Spec.Trace, Simulator.RunContext on the sample, core.NewPredictor and
// advisor.Search. The job's total is timed separately around all of it.
type jobRun struct {
	total, trace, profile, build, search time.Duration

	tr     *trace.Trace
	sample *placement.Placement
	prof   *sim.Measurement
	pred   *core.Predictor
	res    *advisor.RankResult

	// Traced runs only: bytes allocated while generating the trace and the
	// predictor's contribution-cache counters during the search.
	traceAlloc                 uint64
	contribHits, contribBuilds int64
}

// runJob executes one job. A traced job attaches a collector to the
// predictor and the search (the program's existing model_contrib_*
// counters) and reads the runtime's allocation counter around the trace
// generation.
func runJob(ctx context.Context, adv *advisor.Advisor, j adviseJob, parallelism int, traced bool) (*jobRun, error) {
	start := time.Now()
	spec, ok := kernels.Get(j.Kernel)
	if !ok {
		return nil, fmt.Errorf("unknown kernel %q", j.Kernel)
	}
	strat, err := advisor.ParseStrategy(j.Strategy)
	if err != nil {
		return nil, err
	}
	var col *obs.Collector
	var rec obs.Recorder
	var allocBefore uint64
	if traced {
		col = obs.NewCollector()
		rec = col
		allocBefore = heapAllocated()
	}
	r := &jobRun{}

	t := time.Now()
	r.tr = spec.Trace(j.Scale)
	r.trace = time.Since(t)
	if traced {
		r.traceAlloc = heapAllocated() - allocBefore
	}

	t = time.Now()
	if r.sample, err = spec.SamplePlacement(r.tr); err != nil {
		return nil, err
	}
	if r.prof, err = sim.New(adv.Cfg).RunContext(ctx, r.tr, r.sample, r.sample); err != nil {
		return nil, fmt.Errorf("profiling sample: %w", err)
	}
	r.profile = time.Since(t)

	t = time.Now()
	r.pred, err = core.NewPredictor(adv.Model, r.tr, r.sample,
		core.SampleProfile{TimeNS: r.prof.TimeNS, Events: r.prof.Events})
	if err != nil {
		return nil, err
	}
	r.build = time.Since(t)

	if traced {
		r.pred.SetRecorder(col)
	}
	t = time.Now()
	r.res, err = advisor.Search(ctx, adv.Cfg, r.tr, r.pred, advisor.RankOptions{
		TopK: topK, Parallelism: parallelism, Strategy: strat,
	}, rec)
	if err != nil {
		return nil, err
	}
	r.search = time.Since(t)
	r.total = time.Since(start)
	if traced {
		snap := col.Snapshot()
		r.contribHits = snap.Counter("model_contrib_cache_hits_total")
		r.contribBuilds = snap.Counter("model_contrib_builds_total")
		r.pred.SetRecorder(nil)
	}
	if len(r.res.Ranked) == 0 {
		return nil, fmt.Errorf("empty ranking")
	}
	return r, nil
}

// top1Quality simulates the predicted-best placement (outside any timed
// region) and compares it with the sample's profile and with its own
// prediction.
func top1Quality(ctx context.Context, cfg *gpu.Config, r *jobRun) (speedup, errPct float64, err error) {
	best := r.res.Ranked[0]
	m, err := sim.New(cfg).RunContext(ctx, r.tr, r.sample, best.Placement)
	if err != nil {
		return 0, 0, fmt.Errorf("simulating top-1: %w", err)
	}
	return r.prof.TimeNS / m.TimeNS, 100 * math.Abs(best.PredictedNS-m.TimeNS) / m.TimeNS, nil
}

// deltaFull times a warm PredictDelta (the first legal single-array move
// away from the sample, whose contributions the search already built) and
// a PredictFull of the sample on the job's predictor; medians of a few
// repetitions.
func deltaFull(cfg *gpu.Config, r *jobRun) (deltaUS, fullMS float64, err error) {
	moves := placement.Moves(r.tr, r.sample, cfg)
	if len(moves) == 0 {
		return 0, 0, fmt.Errorf("no legal single-array move")
	}
	idx := 0
	for i, sp := range moves[0].Spaces {
		if sp != r.sample.Spaces[i] {
			idx = i
			break
		}
	}
	space := moves[0].Spaces[idx]
	root := r.pred.SampleState()
	if _, _, err := r.pred.PredictDelta(root, idx, space); err != nil {
		return 0, 0, err
	}
	var deltas, fulls []float64
	for range 7 {
		t := time.Now()
		if _, _, err := r.pred.PredictDelta(root, idx, space); err != nil {
			return 0, 0, err
		}
		deltas = append(deltas, us(time.Since(t)))
	}
	for range 3 {
		t := time.Now()
		if _, err := r.pred.PredictFull(r.sample); err != nil {
			return 0, 0, err
		}
		d := time.Since(t)
		fulls = append(fulls, ms(d))
		if d > 100*time.Millisecond {
			break // one repetition suffices at this size
		}
	}
	return median(deltas), median(fulls), nil
}

// layerSample is the per-layer record of one traced job.
type layerSample struct {
	total, trace, profile, build, search time.Duration
	traceAlloc                           uint64
	inst                                 int64
	evaluated, space                     int
	contribHits, contribBuilds           int64
}

// jobStats accumulates one job's runs.
type jobStats struct {
	job      adviseJob
	untraced []time.Duration
	traced   []layerSample
	// Deterministic results, taken from the first run: quality of the
	// top-1 and coverage of the search.
	speedup, errPct  float64
	evaluated, space int
	qualityDone      bool
	// From the first traced run.
	deltaUS, fullMS float64
	deltaDone       bool
}

// adviseStats is what a closed loop over a job list measured.
type adviseStats struct {
	jobs   []*jobStats
	passes int
	// Reconciliation of traced jobs.
	reconcileMaxGapPct float64
	reconcileFailures  int
}

// tracedPass reports whether pass p of a traced run is traced. Passes go
// untraced, traced, traced, untraced, ... so both kinds see the same number
// of cold and warm passes, and the tracing overhead compares like with like.
func tracedPass(traced bool, p int) bool {
	return traced && (p%4 == 1 || p%4 == 2)
}

// runAdviseLoop runs whole passes over jobs, each in a fresh seeded order,
// until at least dur has passed; a traced run stops only at the end of an
// untraced, traced, traced, untraced group, so both kinds of pass ran
// equally often and equally early. Every ranking is checked against the
// goldens (or collected into update, when non-nil). Searches run with the
// given parallelism.
func runAdviseLoop(ctx context.Context, seed int64, traced bool, dur time.Duration, parallelism int, jobs []adviseJob,
	advs map[string]*advisor.Advisor, g goldens, update goldens, out *outcome) (*adviseStats, error) {
	st := &adviseStats{}
	byKey := map[string]*jobStats{}
	for _, j := range jobs {
		js := &jobStats{job: j}
		st.jobs = append(st.jobs, js)
		byKey[j.key()] = js
	}
	rng := rand.New(rand.NewSource(seed))
	start := time.Now()
	for p := 0; ; p++ {
		tp := tracedPass(traced, p)
		for _, i := range rng.Perm(len(jobs)) {
			j := jobs[i]
			js := byKey[j.key()]
			adv := advs[j.Arch]
			out.Attempted++
			r, err := runJob(ctx, adv, j, parallelism, tp)
			if err != nil {
				out.fail("%s: %v", j.key(), err)
				continue
			}
			rows := rowsOf(r.tr, r.res.Ranked)
			if update != nil {
				update[j.key()] = rows
			} else if msg := g.check(j.key(), rows); msg != "" {
				out.fail("golden mismatch: %s", msg)
			}
			if !js.qualityDone {
				if js.speedup, js.errPct, err = top1Quality(ctx, adv.Cfg, r); err != nil {
					return nil, fmt.Errorf("%s: %w", j.key(), err)
				}
				js.evaluated, js.space = r.res.Evaluated, r.res.Total
				js.qualityDone = true
			}
			if !tp {
				js.untraced = append(js.untraced, r.total)
				continue
			}
			s := layerSample{
				total: r.total, trace: r.trace, profile: r.profile, build: r.build, search: r.search,
				traceAlloc: r.traceAlloc, inst: r.prof.Events.InstExecuted,
				evaluated: r.res.Evaluated, space: r.res.Total,
				contribHits: r.contribHits, contribBuilds: r.contribBuilds,
			}
			js.traced = append(js.traced, s)
			if !js.deltaDone {
				if js.deltaUS, js.fullMS, err = deltaFull(adv.Cfg, r); err != nil {
					return nil, fmt.Errorf("%s: %w", j.key(), err)
				}
				js.deltaDone = true
			}
		}
		st.passes = p + 1
		if time.Since(start) >= dur && (!traced || p%4 == 3) {
			break
		}
	}
	st.reconcile(out)
	return st, nil
}

// reconcile checks, for every job of the list, that its four layer times
// add up to its end-to-end time: the median over its traced runs of the
// time outside the layers must stay within the tolerance of its median
// time. Medians keep one descheduled run from failing the check.
func (st *adviseStats) reconcile(out *outcome) {
	for _, js := range st.jobs {
		if len(js.traced) == 0 {
			continue
		}
		var gaps, totals []float64
		for _, s := range js.traced {
			gaps = append(gaps, ms(s.total-(s.trace+s.profile+s.build+s.search)))
			totals = append(totals, ms(s.total))
		}
		gap, total := median(gaps), median(totals)
		st.reconcileMaxGapPct = math.Max(st.reconcileMaxGapPct, 100*gap/total)
		if gap > reconcileShare*total+ms(reconcileFloor) {
			st.reconcileFailures++
			out.fail("%s: the layers leave %.3f ms of a %.3f ms job unaccounted (tolerance %.0f%% + %v)",
				js.job.key(), gap, total, 100*reconcileShare, reconcileFloor)
		}
	}
}

// e2e fills the end-to-end metrics an advise loop defines. Each job of the
// list counts once, at its median latency over the run's untraced passes,
// so a pass disturbed by the machine moves no figure, and the quantiles do
// not shift with the number of passes a run completes. Every request of an
// advise workload runs the whole pipeline, so the request and the job
// latencies are the same sample.
func (st *adviseStats) e2e(m map[string]float64) {
	var lat, speedups, errs []float64
	total := 0.0
	for _, js := range st.jobs {
		if len(js.untraced) > 0 {
			l := median(durationsMS(js.untraced))
			lat = append(lat, l)
			total += l
		}
		if js.qualityDone {
			speedups = append(speedups, js.speedup)
			errs = append(errs, js.errPct)
		}
	}
	m["throughput_per_s"] = float64(len(lat)) / (total / 1e3)
	m["req_p50_ms"] = quantile(lat, 0.5)
	m["req_p90_ms"] = quantile(lat, 0.9)
	m["job_p50_ms"] = m["req_p50_ms"]
	m["job_p90_ms"] = m["req_p90_ms"]
	m["top1_speedup"] = geomean(speedups)
	m["top1_error_pct"] = mean(errs)
}

// layers fills the per-layer metrics of the pipeline modules from the
// traced runs: times are means per job, so trace + profile + build + search
// add up to the mean traced job.
func (st *adviseStats) layers(m map[string]float64) {
	var n, inst, hits, builds float64
	var trace, profile, build, search time.Duration
	var alloc uint64
	var evaluated, space int
	var deltas, fulls, speedups, untracedMS, tracedMS []float64
	var spmvGreedy, spmvExhaustive []float64
	for _, js := range st.jobs {
		for _, s := range js.traced {
			n++
			trace += s.trace
			profile += s.profile
			build += s.build
			search += s.search
			alloc += s.traceAlloc
			inst += float64(s.inst)
			evaluated += s.evaluated
			space += s.space
			hits += float64(s.contribHits)
			builds += float64(s.contribBuilds)
			tracedMS = append(tracedMS, ms(s.total))
			switch js.job {
			case adviseJob{"k80", "spmv", 1, "greedy"}:
				spmvGreedy = append(spmvGreedy, ms(s.search))
			case adviseJob{"k80", "spmv", 1, "exhaustive"}:
				spmvExhaustive = append(spmvExhaustive, ms(s.search))
			}
		}
		untracedMS = append(untracedMS, durationsMS(js.untraced)...)
		if js.deltaDone {
			deltas = append(deltas, js.deltaUS)
			fulls = append(fulls, js.fullMS)
			speedups = append(speedups, js.fullMS*1e3/js.deltaUS)
		}
	}
	m["kernels.trace_ms"] = ms(trace) / n
	m["kernels.trace_alloc_mb"] = float64(alloc) / n / (1 << 20)
	m["sim.profile_ms"] = ms(profile) / n
	m["sim.ns_per_inst"] = float64(profile) / inst
	m["core.build_ms"] = ms(build) / n
	m["core.delta_us"] = mean(deltas)
	m["core.full_ms"] = mean(fulls)
	m["core.delta_speedup"] = geomean(speedups)
	m["core.contrib_builds"] = builds / n
	m["core.contrib_hit_ratio"] = ratio(hits, hits+builds)
	m["advisor.search_ms"] = ms(search) / n
	m["advisor.evals"] = float64(evaluated) / n
	m["advisor.eval_share"] = float64(evaluated) / float64(space)
	m["advisor.ms_per_eval"] = ms(search) / float64(evaluated)
	m["advisor.spmv_greedy_search_ms"] = orZero(median(spmvGreedy))
	m["advisor.spmv_exhaustive_search_ms"] = orZero(median(spmvExhaustive))
	// Traced and untraced passes run the same jobs equally often.
	m["bench.trace_overhead_ratio"] = mean(tracedMS) / mean(untracedMS)
	m["bench.reconcile_max_gap_pct"] = st.reconcileMaxGapPct
	m["bench.reconcile_failures"] = float64(st.reconcileFailures)
}

// orZero maps the NaN of an empty sample to 0: a layer the workload does
// not exercise.
func orZero(v float64) float64 {
	if math.IsNaN(v) {
		return 0
	}
	return v
}

// jobDetail is one job's line in the report.
type jobDetail struct {
	Job        string  `json:"job"`
	Runs       int     `json:"runs"`
	P50MS      float64 `json:"p50_ms"`
	Evaluated  int     `json:"evaluated"`
	Space      int     `json:"space"`
	Speedup    float64 `json:"top1_speedup"`
	ErrPct     float64 `json:"top1_error_pct"`
	TraceMS    float64 `json:"trace_ms,omitempty"`
	ProfileMS  float64 `json:"profile_ms,omitempty"`
	BuildMS    float64 `json:"build_ms,omitempty"`
	SearchMS   float64 `json:"search_ms,omitempty"`
	TracedMS   float64 `json:"traced_total_ms,omitempty"`
	LayerSumMS float64 `json:"layer_sum_ms,omitempty"`
	DeltaUS    float64 `json:"delta_us,omitempty"`
	FullMS     float64 `json:"full_ms,omitempty"`
}

func (st *adviseStats) details() []jobDetail {
	var out []jobDetail
	for _, js := range st.jobs {
		d := jobDetail{
			Job: js.job.key(), Runs: len(js.untraced) + len(js.traced),
			P50MS: orZero(median(durationsMS(js.untraced))), Evaluated: js.evaluated, Space: js.space,
			Speedup: js.speedup, ErrPct: js.errPct, DeltaUS: js.deltaUS, FullMS: js.fullMS,
		}
		if len(js.traced) > 0 {
			var tr, pr, bu, se, to []float64
			for _, s := range js.traced {
				tr = append(tr, ms(s.trace))
				pr = append(pr, ms(s.profile))
				bu = append(bu, ms(s.build))
				se = append(se, ms(s.search))
				to = append(to, ms(s.total))
			}
			d.TraceMS, d.ProfileMS, d.BuildMS, d.SearchMS = mean(tr), mean(pr), mean(bu), mean(se)
			d.TracedMS = mean(to)
			d.LayerSumMS = d.TraceMS + d.ProfileMS + d.BuildMS + d.SearchMS
		}
		out = append(out, d)
	}
	return out
}

// runAdvise is an advise workload: train the advisors (set-up), then run
// the job list in a closed loop with one client.
func runAdvise(ctx context.Context, opt options, w adviseWorkload) (*outcome, error) {
	jobs, reps := w.jobs, setupReps
	if opt.Short {
		jobs, reps = jobs[:w.short], 1
	}
	out := &outcome{E2E: map[string]float64{}, Layers: zeroLayers()}
	var setups []float64
	var advs map[string]*advisor.Advisor
	for range reps {
		t := time.Now()
		var err error
		if advs, err = trainAdvisors(archesOf(jobs)); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	var g, update goldens
	if opt.UpdateGoldens {
		update = goldens{}
	} else {
		var err error
		if g, err = loadGoldens(opt.GoldenPath); err != nil {
			return nil, err
		}
	}

	gc := readGC()
	st, err := runAdviseLoop(ctx, opt.Seed, opt.Traced, opt.Duration, runtime.GOMAXPROCS(0), jobs, advs, g, update, out)
	if err != nil {
		return nil, err
	}
	gcLayer(gc, out.Layers)
	if update != nil {
		if err := writeGoldens(opt.GoldenPath, update); err != nil {
			return nil, err
		}
	}
	out.E2E["setup_s"] = median(setups)
	st.e2e(out.E2E)
	out.E2E["ok_ratio"] = float64(out.Attempted-out.Failed) / float64(out.Attempted)
	out.E2E["peak_rss_mb"] = peakRSSMB()
	if opt.Traced {
		st.layers(out.Layers)
	}
	out.Detail = map[string]any{"setup_s": setups, "passes": st.passes, "jobs": st.details()}
	return out, nil
}

// zeroLayers starts every per-layer metric at 0, the value of a layer the
// workload does not exercise.
func zeroLayers() map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		m[d.Name] = 0
	}
	return m
}
