package core

import (
	"fmt"
	"math"
	"sync"

	"gpuhms/internal/addrmode"
	"gpuhms/internal/dram"
	"gpuhms/internal/gpu"
	"gpuhms/internal/hmserr"
	"gpuhms/internal/obs"
	"gpuhms/internal/perf"
	"gpuhms/internal/placement"
	"gpuhms/internal/queuing"
	"gpuhms/internal/trace"
)

func addrModeInstrs(space gpu.MemSpace, dt trace.DType) int {
	return addrmode.InstrPerAccess(space, dt)
}

// Options selects the model variant. The zero value is the "baseline" of
// §V-B: no detailed instruction counting, constant DRAM latency, even
// request distribution, Eq 11 overlap.
type Options struct {
	// InstrCounting enables the detailed issued-instruction estimation of
	// §III-B: addressing-mode deltas and instruction-replay quantification
	// (Eq 3). When false, T_comp uses the sample placement's executed
	// instruction count for every placement, as in prior work [6][7].
	InstrCounting bool

	// Queuing enables the G/G/1 queuing model of §III-C for the DRAM access
	// latency. When false a constant off-chip latency (the row-miss latency
	// a microbenchmark would measure) is assumed, as in prior work.
	Queuing bool

	// AddressMapping distributes memory requests over banks using the
	// detected address mapping scheme; when false, requests are spread
	// evenly (the Fig 8 ablation).
	AddressMapping bool

	// Variant selects the queuing approximation (paper Eq 9 by default).
	Variant queuing.Variant

	// OverlapCoeffs are the trained Eq 11 coefficients (see Train). Nil
	// predicts zero overlap.
	OverlapCoeffs []float64

	// HongKimOverlap replaces the Eq 11 overlap model with the MWP/CWP
	// formulation of [6], used by the Sim-et-al baseline [7].
	HongKimOverlap bool
}

// FullOptions returns the paper's complete model (coefficients must still be
// trained).
func FullOptions() Options {
	return Options{InstrCounting: true, Queuing: true, AddressMapping: true}
}

// Model predicts kernel execution times under data placements.
type Model struct {
	Cfg     *gpu.Config
	Mapping dram.Mapping
	Opts    Options
}

// NewModel builds a model with the architecture's default address mapping.
func NewModel(cfg *gpu.Config, opts Options) *Model {
	return &Model{Cfg: cfg, Mapping: dram.DefaultMapping(cfg.DRAM), Opts: opts}
}

// SampleProfile is what profiling the sample placement provides: its
// measured execution time and hardware event counters (nvprof in the paper;
// the ground-truth simulator here).
type SampleProfile struct {
	TimeNS float64
	Events perf.Events
}

// Validate rejects profiles that cannot seed predictions — non-finite or
// non-positive sample times, and negative, non-finite, or inconsistent
// counters. Failures wrap hmserr.ErrInvalidProfile: a noisy profiler (or a
// fault injector) surfaces here as a typed error, never as NaN predictions.
func (p *SampleProfile) Validate() error {
	if math.IsNaN(p.TimeNS) || math.IsInf(p.TimeNS, 0) || p.TimeNS <= 0 {
		return hmserr.Wrap(hmserr.ErrInvalidProfile, "sample time %g ns", p.TimeNS)
	}
	if err := p.Events.Validate(); err != nil {
		return hmserr.Wrap(hmserr.ErrInvalidProfile, "%v", err)
	}
	return nil
}

// Prediction is one placement's predicted performance, with the Eq 1
// decomposition exposed for ablation studies.
type Prediction struct {
	TimeNS    float64
	Cycles    float64
	TComp     float64 // cycles
	TMem      float64 // cycles
	TOverlap  float64 // cycles
	StagingNS float64

	AMAT         float64 // cycles per memory instruction
	DRAMLatNS    float64 // average DRAM access latency (Eq 7)
	QueueDelayNS float64 // average queuing component of DRAMLatNS
	Events       perf.Events
	Analysis     *Analysis

	// FixedPointIters counts the bisection steps spent finding the
	// self-consistent execution span of the queuing model (0 when the
	// queuing model is off) — a convergence observable for the obs layer.
	FixedPointIters int
}

// Predictor holds the per-kernel state: the sample placement's layout, the
// model's own analysis of the sample, the sample profile, and the decomposed
// evaluator — the placement-independent program plus the shared contribution
// cache that makes repeated and delta evaluations cheap (delta.go).
//
// A Predictor is safe for concurrent use: the fields set at construction are
// read-only, the contribution cache is internally synchronized, and the
// reusable merge scratch is guarded by a mutex. For parallel ranking, prefer
// one Clone per worker — clones share the immutable state and the
// contribution cache but carry private merge scratch, so they never contend
// on the lock.
type Predictor struct {
	model        *Model
	trace        *trace.Trace
	sample       *placement.Placement
	sampleLayout *placement.Layout
	sampleAn     *Analysis
	sampleState  *DeltaState
	profile      SampleProfile
	rec          obs.Recorder

	prog  *program
	cache *contribCache

	// mu guards scr, the lazily-built reusable merge scratch (shared cache
	// hierarchy, per-SM caches, DRAM analyzer) that makes repeated
	// evaluations allocation-lean — one set per predictor instead of per
	// prediction.
	mu  sync.Mutex
	scr *mergeScratch
}

// Clone returns a predictor sharing this one's immutable state (model,
// trace, program, contribution cache, sample analysis, profile, recorder)
// but with private merge scratch — the per-worker handle of a parallel
// ranking. Clones produce bit-identical predictions to the original, and
// contributions built by one clone are visible to all.
func (p *Predictor) Clone() *Predictor {
	return &Predictor{
		model:        p.model,
		trace:        p.trace,
		sample:       p.sample,
		sampleLayout: p.sampleLayout,
		sampleAn:     p.sampleAn,
		sampleState:  p.sampleState,
		profile:      p.profile,
		rec:          p.rec,
		prog:         p.prog,
		cache:        p.cache,
	}
}

// SetRecorder attaches an instrumentation recorder: every Predict reports
// its Eq 1 term breakdown (T_comp/T_mem/T_overlap inputs and outputs) and a
// wall-clock span. A nil recorder disables recording.
func (p *Predictor) SetRecorder(rec obs.Recorder) { p.rec = obs.OrNop(rec) }

// NewPredictor analyzes the sample placement and prepares target
// predictions. The sample profile is validated first: non-finite, negative,
// or inconsistent profiles are rejected with hmserr.ErrInvalidProfile.
// Construction builds the placement-independent program, seeds the
// contribution cache with the sample's contributions, and retains the
// sample's DeltaState as the canonical root for delta evaluations.
func NewPredictor(m *Model, t *trace.Trace, sample *placement.Placement, prof SampleProfile) (*Predictor, error) {
	if err := prof.Validate(); err != nil {
		return nil, err
	}
	if err := placement.Check(t, sample, m.Cfg); err != nil {
		return nil, fmt.Errorf("core: sample placement: %w", err)
	}
	prog := newProgram(m.Cfg, t)
	p := &Predictor{
		model:        m,
		trace:        t,
		sample:       sample,
		sampleLayout: placement.NewLayout(t, sample),
		profile:      prof,
		prog:         prog,
		cache:        newContribCache(prog),
	}
	an, st, _, _ := p.evalState(sample, nil, -1, true)
	p.sampleAn = an
	p.sampleState = st
	return p, nil
}

func (m *Model) distMode() dram.DistributionMode {
	if m.Opts.AddressMapping {
		return dram.Mapped
	}
	return dram.Even
}

// Sample returns the model's analysis of the sample placement.
func (p *Predictor) Sample() *Analysis { return p.sampleAn }

// SamplePlacement returns the profiled sample placement — the canonical
// starting point for local searches (greedy coordinate descent). Callers must
// not mutate it; Clone before modifying.
func (p *Predictor) SamplePlacement() *placement.Placement { return p.sample }

// evalState runs the decomposed evaluation of a target placement: resolve the
// layout, gather one contribution per array — reusing prev's where the move
// left an array's binding untouched, then the shared cache, then a fresh
// build — and run the DRAM merge pass. With useCache false every contribution
// not taken from prev is rebuilt from scratch: the full-evaluation fallback,
// identical math at cold-start cost. Returns the analysis, the reusable
// state, and the contribution cache hit/build tallies for the caller's
// telemetry.
func (p *Predictor) evalState(target *placement.Placement, prev *DeltaState, moved int, useCache bool) (*Analysis, *DeltaState, int64, int64) {
	layout := placement.Retarget(p.trace, p.sampleLayout, p.sample, target)
	contribs := make([]*contribution, len(target.Spaces))
	var hits, builds int64
	bankBytes := uint64(p.model.Cfg.SharedBankBytes)
	for i := range contribs {
		sp := target.Spaces[i]
		addr := addrKeyOf(layout, sp, i, bankBytes)
		// Fast path: an array the move did not touch, whose binding the
		// layout retargeting also left alone, keeps its contribution without
		// even a cache lookup. Retargeting can shift untouched arrays — a
		// neighbor crossing the on-chip/off-chip boundary moves shared
		// offsets and heap ranges — and those fall through to the cache.
		if prev != nil && i != moved && prev.place.Spaces[i] == sp &&
			addrKeyOf(prev.layout, sp, i, bankBytes) == addr {
			contribs[i] = prev.contribs[i]
			continue
		}
		if !useCache {
			contribs[i] = p.prog.buildContribution(p.cache.resolver, trace.ArrayID(i), sp, addr)
			builds++
			continue
		}
		c, hit := p.cache.get(trace.ArrayID(i), sp, addr)
		contribs[i] = c
		if hit {
			hits++
		} else {
			builds++
		}
	}
	// PredictFull bypasses the group-sim cache too: cache-distrusting
	// evaluations rebuild every memoized input.
	var groups *groupCache
	if useCache {
		groups = &p.cache.groups
	}
	p.mu.Lock()
	if p.scr == nil {
		p.scr = newMergeScratch(p.model.Cfg, p.model.Mapping, p.model.distMode())
	} else {
		p.scr.reset()
	}
	an := p.prog.merge(target, contribs, p.scr, groups)
	p.mu.Unlock()
	st := &DeltaState{place: target.Clone(), layout: layout, contribs: contribs}
	return an, st, hits, builds
}

// recordPrediction emits the per-prediction telemetry shared by every
// evaluation entry point.
func (p *Predictor) recordPrediction(rec obs.Recorder, pred *Prediction, span string, hits, builds int64, startNS float64) {
	rec.Add("model_predictions_total", 1)
	rec.Add("model_fixedpoint_iters_total", int64(pred.FixedPointIters))
	if hits > 0 {
		rec.Add("model_contrib_cache_hits_total", hits)
	}
	if builds > 0 {
		rec.Add("model_contrib_builds_total", builds)
	}
	rec.Observe("model_tcomp_cycles", pred.TComp)
	rec.Observe("model_tmem_cycles", pred.TMem)
	rec.Observe("model_toverlap_cycles", pred.TOverlap)
	rec.Observe("model_amat_cycles", pred.AMAT)
	rec.Observe("model_dram_latency_ns", pred.DRAMLatNS)
	rec.Observe("model_queue_delay_ns", pred.QueueDelayNS)
	rec.Observe("model_predicted_ns", pred.TimeNS)
	rec.Span("model", span, startNS, rec.Now()-startNS)
}

// Predict returns the predicted performance of a target placement. It runs
// the decomposed evaluation with the contribution cache on, so repeated
// predictions against one predictor pay only the merge pass for arrays whose
// bindings have been seen before.
func (p *Predictor) Predict(target *placement.Placement) (*Prediction, error) {
	pred, _, err := p.PredictState(target)
	return pred, err
}

// PredictState is Predict returning also the reusable DeltaState of the
// evaluated placement — the starting point for PredictDelta.
func (p *Predictor) PredictState(target *placement.Placement) (*Prediction, *DeltaState, error) {
	return p.predictVia(target, nil, -1, true, "predict")
}

// PredictDelta predicts the placement obtained by moving one array of a
// previously evaluated placement to a new space, reusing every untouched
// per-array contribution from prev. The result is byte-identical to
// Predict of the same placement — delta and full evaluation share one code
// path and differ only in cache temperature — which the equivalence suite
// pins. A delta evaluation still validates placement legality, so capacity
// and read-only violations surface exactly as they do from Predict.
func (p *Predictor) PredictDelta(prev *DeltaState, arrayIdx int, newSpace gpu.MemSpace) (*Prediction, *DeltaState, error) {
	if prev == nil {
		return nil, nil, hmserr.Wrap(hmserr.ErrIllegalPlacement, "PredictDelta: nil previous state")
	}
	target, err := prev.place.WithMoveChecked(trace.ArrayID(arrayIdx), newSpace)
	if err != nil {
		return nil, nil, err
	}
	return p.predictVia(target, prev, arrayIdx, true, "predict_delta")
}

// PredictFull is Predict with the contribution cache bypassed: every
// per-array contribution is rebuilt from scratch. It is the documented
// fallback when cached state cannot be trusted (and the honest baseline for
// delta-speedup benchmarks); the math is identical to Predict, only slower.
func (p *Predictor) PredictFull(target *placement.Placement) (*Prediction, error) {
	pred, _, err := p.predictVia(target, nil, -1, false, "predict_full")
	return pred, err
}

// SampleState returns the DeltaState of the profiled sample placement — the
// canonical root for local searches that explore single-array moves.
func (p *Predictor) SampleState() *DeltaState { return p.sampleState }

// predictVia is the shared evaluation path behind Predict, PredictState,
// PredictDelta, and PredictFull.
func (p *Predictor) predictVia(target *placement.Placement, prev *DeltaState, moved int, useCache bool, span string) (*Prediction, *DeltaState, error) {
	if err := placement.Check(p.trace, target, p.model.Cfg); err != nil {
		return nil, nil, err
	}
	rec := obs.OrNop(p.rec)
	enabled := rec.Enabled()
	var start float64
	if enabled {
		start = rec.Now()
	}
	an, st, hits, builds := p.evalState(target, prev, moved, useCache)
	pred, err := p.model.predictFrom(an, p.sampleAn, &p.profile)
	if err != nil {
		return nil, nil, err
	}
	if enabled {
		if span == "predict_delta" {
			rec.Add("model_delta_predictions_total", 1)
		}
		p.recordPrediction(rec, pred, span, hits, builds, start)
	}
	return pred, st, nil
}

// predictFrom assembles the Eq 1 prediction from a target analysis.
func (m *Model) predictFrom(an, sampleAn *Analysis, prof *SampleProfile) (*Prediction, error) {
	cfg := m.Cfg
	pred := &Prediction{Events: an.Events, Analysis: an, StagingNS: an.StagingNS}

	tcomp := m.tcomp(an, sampleAn, prof)
	pred.TComp = tcomp

	// The queuing model needs the kernel's execution span to turn the
	// instruction-count arrival proxy into arrival rates; the span in turn
	// depends on the memory cost the queuing model produces. The map
	// span → predicted span is decreasing (spreading arrivals lowers
	// utilization and queuing delay), so the self-consistent span is the
	// unique fixed point, found by bisection.
	eval := func(spanNS float64) (total, tmem, toverlap, amat, dramNS, queueNS float64) {
		dramNS, queueNS = m.dramLatency(an, spanNS)
		amat = m.amat(an, dramNS)
		tmem = m.tmem(an, amat)
		toverlap = m.toverlap(an, tcomp, tmem, amat)
		total = tcomp + tmem - toverlap
		if total < tcomp {
			total = tcomp
		}
		return total, tmem, toverlap, amat, dramNS, queueNS
	}

	nsPerCycle := cfg.NSPerCycle()
	var tmem, amat, dramNS, queueNS, toverlap float64
	if !m.Opts.Queuing || len(an.BankStreams) == 0 {
		_, tmem, toverlap, amat, dramNS, queueNS = eval(0)
	} else {
		// Bracket the fixed point: lo is the no-memory-cost span, hi is
		// doubled until the predicted span falls below it.
		uncontended, _, _, _, _, _ := eval(0)
		lo := tcomp * nsPerCycle
		if lo <= 0 {
			lo = 1
		}
		hi := uncontended * nsPerCycle
		if hi < lo {
			hi = lo
		}
		for i := 0; i < 60; i++ {
			total, _, _, _, _, _ := eval(hi)
			if total*nsPerCycle <= hi {
				break
			}
			hi *= 2
			pred.FixedPointIters++
		}
		for i := 0; i < 50 && hi-lo > 1e-3*hi; i++ {
			mid := (lo + hi) / 2
			total, _, _, _, _, _ := eval(mid)
			if total*nsPerCycle > mid {
				lo = mid
			} else {
				hi = mid
			}
			pred.FixedPointIters++
		}
		_, tmem, toverlap, amat, dramNS, queueNS = eval(hi)
	}
	pred.TMem = tmem
	pred.TOverlap = toverlap
	pred.AMAT = amat
	pred.DRAMLatNS = dramNS
	pred.QueueDelayNS = queueNS

	pred.Cycles = tcomp + tmem - toverlap
	if pred.Cycles < tcomp {
		pred.Cycles = tcomp
	}
	pred.TimeNS = pred.Cycles*cfg.NSPerCycle() + an.StagingNS
	if math.IsNaN(pred.TimeNS) || pred.TimeNS <= 0 {
		return nil, fmt.Errorf("core: degenerate prediction (%.3f ns)", pred.TimeNS)
	}
	return pred, nil
}
