package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"gpuhms/internal/advisor"
	"gpuhms/internal/kernels"
	"gpuhms/internal/obs"
	"gpuhms/internal/placement"
	"gpuhms/internal/service"
	"gpuhms/internal/sim"
)

// The serve-mixed workload: an open loop of independent users (Poisson
// arrivals) into the in-process service handler at a few fixed rates, all
// of them /v1/rank cache hits on prewarmed keys, which only decode, read the
// cache and encode. Alongside it one client sends the uncached work, which
// writes the cache or bypasses it and goes through the worker pool's queue
// and a search: three in four are rank misses (a prewarmed kernel under a
// new top_k, so the search is the same and only the key is new), one in four
// is /v1/predict, which is never cached. Both kinds are timed at the same
// time, so a cache or admission change that speeds one kind up at the
// other's cost shows here.
const serveArch = "k80"

// missKernel carries all uncached work. With one kernel the uncached
// latencies form one cluster instead of straddling several; a rank miss
// costs some 48 ms of CPU and a predict some 40 ms.
const missKernel = "fft"

// serveParallelism is the search parallelism of each pool worker.
const serveParallelism = 1

var (
	// serveHitKernels are the prewarmed rank keys (whole rankings).
	serveHitKernels = []string{"dct8x8", "fft", "histogram", "scan", "sort", "stencil2d", "transpose", "vecadd"}
	// serveRates is the fixed ladder of offered rates (requests/s). The
	// latencies are taken at the lowest rate only (gatedRungs), where both
	// cores of a 2-CPU machine stay well below saturation. The other rates
	// only probe max_rps and run as long as every rate before them was
	// sustained. The dispatcher serves hits one at a time on one core, some
	// 20 us each, so the ladder tops out above what one core can serve.
	serveRates = []float64{1000, 2000, 4000, 8000, 16000, 32000, 64000, 128000}
	gatedRungs = 1
)

const (
	// uncachedEvery sets the uncached share: the uncached client sends one
	// request per uncachedEvery offered hits, at most one at a time. The
	// dispatcher and the hits take one core (1000 hits/s at ~25 us are 2.5%
	// of it), the pool's one search worker the other, which uncached
	// requests of ~48 ms of CPU saturate at one in 48. At one in 300 an
	// uncached request is in flight 16% of the time, more than the 10% a
	// slowdown of the hits beside it needs to reach their p90. README.md
	// has the derivation and the shares tried.
	uncachedEvery = 300
	// missTopKBase is the first top_k of a rank miss. The miss kernel has
	// fewer legal placements, so a miss returns the whole ranking, byte for
	// byte the prewarmed body, while its cache key is new.
	missTopKBase = 1000
	// hitP90Limit and lagP90Limit define the rate a rung sustains: cached
	// requests keep their p90 under the limit, and the dispatcher sends
	// nine in ten arrivals within the limit of their schedule, so no
	// backlog builds.
	hitP90Limit = time.Millisecond
	lagP90Limit = time.Millisecond
	// reqWindow is the window of the request quantiles: a few hundred
	// requests at the gated rate.
	reqWindow = 500 * time.Millisecond
	// jobWindow is the window of the uncached latencies and rate.
	jobWindow = time.Second
	// requestGrace bounds how long after its phase a request may finish
	// before it fails with the service's cancellation status.
	requestGrace = 10 * time.Second
)

type opClass int

const (
	opHit opClass = iota
	opMiss
	opPredict
)

// serveOp is one request with the response it must produce.
type serveOp struct {
	class opClass
	path  string
	body  []byte
	// want is the expected body of a rank request: the prewarmed response.
	want []byte
	// wantTarget and wantNS are the expected fields of a predict response:
	// the target's row of the prewarmed ranking.
	wantTarget string
	wantNS     float64
}

// reference holds the prewarmed rankings every later response is checked
// against.
type reference struct {
	body    map[string][]byte
	rows    map[string][]service.RankedPlacement
	hitBody map[string][]byte
}

// capture is an in-memory ResponseWriter that keeps status, headers and
// body for the checks.
type capture struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func (c *capture) Header() http.Header { return c.header }
func (c *capture) WriteHeader(code int) {
	if c.status == 0 {
		c.status = code
	}
}
func (c *capture) Write(p []byte) (int, error) {
	if c.status == 0 {
		c.status = http.StatusOK
	}
	return c.body.Write(p)
}

var capturePool = sync.Pool{New: func() any { return &capture{} }}

// do sends one POST straight into the handler: the whole mux, middleware
// and handler stack, without sockets. Release the capture when done.
func do(ctx context.Context, h http.Handler, path string, body []byte) *capture {
	c := capturePool.Get().(*capture)
	c.header = make(http.Header, 4)
	c.status = 0
	c.body.Reset()
	req := (&http.Request{
		Method:        http.MethodPost,
		URL:           &url.URL{Path: path},
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        http.Header{},
		Host:          "perfbench",
		RemoteAddr:    "127.0.0.1:0",
		Body:          io.NopCloser(bytes.NewReader(body)),
		ContentLength: int64(len(body)),
	}).WithContext(ctx)
	h.ServeHTTP(c, req)
	return c
}

func release(c *capture) { capturePool.Put(c) }

// check describes what is wrong with a response; "" means it is correct.
// Every failure counts: a non-2xx status (shed, timeout, error), a missing
// X-Request-ID, or a body that differs from the prewarmed reference.
func (op *serveOp) check(c *capture) string {
	if c.status != http.StatusOK {
		return fmt.Sprintf("%s: status %d: %s", op.body, c.status, strings.TrimSpace(c.body.String()))
	}
	if c.header.Get(service.HeaderRequestID) == "" {
		return fmt.Sprintf("%s: no %s header", op.body, service.HeaderRequestID)
	}
	if op.class != opPredict {
		if !bytes.Equal(c.body.Bytes(), op.want) {
			return fmt.Sprintf("%s: body differs from the prewarmed ranking", op.body)
		}
		return ""
	}
	var pr service.PredictResponse
	if err := json.Unmarshal(c.body.Bytes(), &pr); err != nil {
		return fmt.Sprintf("%s: %v", op.body, err)
	}
	if pr.Target != op.wantTarget || math.Float64bits(pr.PredictedNS) != math.Float64bits(op.wantNS) {
		return fmt.Sprintf("%s: predicted %s at %v ns, ranking has %s at %v ns",
			op.body, pr.Target, pr.PredictedNS, op.wantTarget, op.wantNS)
	}
	return ""
}

// opGen draws a seeded request sequence. The hit generator draws cached
// keys; the uncached generator draws predict targets and numbers the rank
// misses, each under a top_k never used before. Every uncached sequence
// repeats three rank misses, then a predict.
type opGen struct {
	rng      *rand.Rand
	ref      *reference
	u        int
	nextTopK int
}

func (g *opGen) hit() serveOp {
	k := serveHitKernels[g.rng.Intn(len(serveHitKernels))]
	return serveOp{class: opHit, path: "/v1/rank", body: g.ref.hitBody[k], want: g.ref.body[k]}
}

func (g *opGen) uncached() serveOp {
	u := g.u
	g.u++
	if u%4 != 3 {
		return g.miss()
	}
	rows := g.ref.rows[missKernel]
	row := rows[g.rng.Intn(len(rows))]
	body, _ := json.Marshal(service.PredictRequest{Kernel: missKernel, Target: row.Placement}) // plain strings: cannot fail
	return serveOp{class: opPredict, path: "/v1/predict", body: body, wantTarget: row.Placement, wantNS: row.PredictedNS}
}

// miss is a rank request for the prewarmed miss kernel under a top_k never
// used before.
func (g *opGen) miss() serveOp {
	body := fmt.Sprintf(`{"kernel":%q,"top_k":%d}`, missKernel, g.nextTopK)
	g.nextTopK++
	return serveOp{class: opMiss, path: "/v1/rank", body: []byte(body), want: g.ref.body[missKernel]}
}

// newServer builds the service over a trained advisor and prewarms the
// cached keys: the set-up of the serve workload.
func newServer(adv *advisor.Advisor, traced bool) (*service.Server, http.Handler, *reference, error) {
	sampleEvery := 0
	if traced {
		sampleEvery = 1 // every request's stage spans go to the timeline
	}
	// The load generator runs in this process and needs a CPU to keep its
	// schedule (in production the load would come from other machines), so
	// the pool gets one search worker per remaining CPU, each ranking
	// sequentially.
	srv, err := service.New(map[string]*advisor.Advisor{serveArch: adv}, service.Options{
		Workers:          max(1, runtime.GOMAXPROCS(0)-1),
		Parallelism:      serveParallelism,
		CacheCap:         1024,
		TraceSampleEvery: sampleEvery,
	}, nil)
	if err != nil {
		return nil, nil, nil, err
	}
	h := srv.Handler()
	srv.MarkReady()
	ref := &reference{body: map[string][]byte{}, rows: map[string][]service.RankedPlacement{}, hitBody: map[string][]byte{}}
	ctx := context.Background()
	for _, k := range serveHitKernels {
		body := []byte(fmt.Sprintf(`{"kernel":%q}`, k))
		for i, want := range []string{"miss", "hit"} {
			c := do(ctx, h, "/v1/rank", body)
			got := c.header.Get(service.HeaderCache)
			if c.status != http.StatusOK || got != want {
				err := fmt.Errorf("prewarm %s: status %d, cache %q (want 200, %q): %s", body, c.status, got, want, c.body.String())
				release(c)
				srv.Close()
				return nil, nil, nil, err
			}
			if i == 0 {
				ref.body[k] = bytes.Clone(c.body.Bytes())
			} else if !bytes.Equal(c.body.Bytes(), ref.body[k]) {
				release(c)
				srv.Close()
				return nil, nil, nil, fmt.Errorf("prewarm %s: cached body differs from the searched one", body)
			}
			release(c)
		}
		var rr service.RankResponse
		if err := json.Unmarshal(ref.body[k], &rr); err != nil {
			srv.Close()
			return nil, nil, nil, err
		}
		ref.rows[k] = rr.Ranked
		ref.hitBody[k] = body
	}
	return srv, h, ref, nil
}

// record is one open-loop request.
type record struct {
	class   opClass
	rate    float64
	at      time.Duration // when it was due (hits) or sent, from the start of the ladder
	latency time.Duration // completion minus scheduled arrival (hits) or send
	handler time.Duration // time inside Handler().ServeHTTP
	lag     time.Duration // how late the dispatcher sent it
	status  int
	cache   string
	problem string
}

// waitUntil holds the dispatcher until t. time.Sleep wakes up to a
// millisecond late, and latency counts from the schedule, so the last
// stretch spins, yielding to the handler goroutines.
func waitUntil(t time.Time) {
	if d := time.Until(t); d > 2*time.Millisecond {
		time.Sleep(d - time.Millisecond)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// mixedRung offers Poisson arrivals of cache hits at rate for dur, while
// the uncached client runs beside them. The schedule and the requests are
// drawn before the clock starts, and every hit's latency runs from when it
// was due. The dispatcher sends the hits itself, one at a time, so serving
// one never waits for another CPU to wake up.
func mixedRung(h http.Handler, hits, unc *opGen, rate float64, dur, offset time.Duration) []record {
	type arrival struct {
		at time.Duration
		op serveOp
	}
	var sched []arrival
	for at := time.Duration(0); ; {
		at += time.Duration(hits.rng.ExpFloat64() / rate * float64(time.Second))
		if at >= dur {
			break
		}
		sched = append(sched, arrival{at, hits.hit()})
	}
	ctx, cancel := context.WithTimeout(context.Background(), dur+requestGrace)
	defer cancel()
	start := time.Now()
	uncRecs := make(chan []record, 1)
	go func() { uncRecs <- uncachedClient(ctx, h, unc, rate, start, dur, offset) }()

	recs := make([]record, 0, len(sched))
	for i := range sched {
		a := &sched[i]
		due := start.Add(a.at)
		waitUntil(due)
		lag := time.Since(due)
		sent := time.Now()
		c := do(ctx, h, a.op.path, a.op.body)
		done := time.Now()
		recs = append(recs, record{
			class: opHit, rate: rate, at: offset + a.at, latency: done.Sub(due), handler: done.Sub(sent), lag: lag,
			status: c.status, cache: c.header.Get(service.HeaderCache), problem: a.op.check(c),
		})
		release(c)
	}
	return append(recs, <-uncRecs...)
}

// uncachedClient sends the uncached work of one rung from start for dur:
// one request per uncachedEvery offered hits, paced on a fixed schedule,
// and never more than one at a time, so a request that overruns its slot
// delays the next instead of queueing behind it. Each latency runs from
// when the request was sent.
func uncachedClient(ctx context.Context, h http.Handler, gen *opGen, rate float64, start time.Time, dur, offset time.Duration) []record {
	every := time.Duration(uncachedEvery / rate * float64(time.Second))
	var recs []record
	for due := start; ; due = due.Add(every) {
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		sent := time.Now()
		if sent.Sub(start) >= dur {
			return recs
		}
		op := gen.uncached()
		c := do(ctx, h, op.path, op.body)
		lat := time.Since(sent)
		recs = append(recs, record{
			class: op.class, rate: rate, at: offset + sent.Sub(start), latency: lat, handler: lat,
			status: c.status, cache: c.header.Get(service.HeaderCache), problem: op.check(c),
		})
		release(c)
	}
}

// missLoop is one closed-loop client sending rank misses back to back for
// dur with no other load: the service's rate on work it cannot answer from
// the cache.
func missLoop(h http.Handler, gen *opGen, dur time.Duration, out *outcome) []timed {
	ctx, cancel := context.WithTimeout(context.Background(), dur+requestGrace)
	defer cancel()
	var lat []timed
	start := time.Now()
	for time.Since(start) < dur {
		op := gen.miss()
		t := time.Now()
		c := do(ctx, h, op.path, op.body)
		lat = append(lat, timed{at: t.Sub(start), ms: ms(time.Since(t))})
		out.Attempted++
		if p := op.check(c); p != "" {
			out.fail("closed loop: %s", p)
		}
		release(c)
	}
	return lat
}

// rungDetail is one offered rate's line in the report.
type rungDetail struct {
	RateRPS     float64 `json:"rate_rps"`
	Sent        int     `json:"sent"`
	HitP50US    float64 `json:"hit_p50_us"`
	HitP90US    float64 `json:"hit_p90_us"`
	HitP99US    float64 `json:"hit_p99_us"`
	Uncached    int     `json:"uncached"`
	UncachedP50 float64 `json:"uncached_p50_ms"`
	UncachedP90 float64 `json:"uncached_p90_ms"`
	LagP50US    float64 `json:"lag_p50_us"`
	LagP90US    float64 `json:"lag_p90_us"`
	LagP99US    float64 `json:"lag_p99_us"`
	Sustained   bool    `json:"sustained"`
}

// runServe is the serve-mixed workload.
func runServe(ctx context.Context, opt options) (*outcome, error) {
	// Three fifths of the measurement time at the gated rate, an eightieth
	// at each rate that only probes max_rps, three tenths for the closed
	// loop of misses alone.
	soloDur := opt.Duration * 3 / 10
	rungDur := func(i int) time.Duration {
		if i < gatedRungs {
			return opt.Duration * 3 / 5
		}
		return opt.Duration / 80
	}
	reps := setupReps
	if opt.Short {
		reps = 1
	}
	out := &outcome{E2E: map[string]float64{}, Layers: zeroLayers()}

	// Set-up: train the advisor and prewarm the cache, several times.
	var setups []float64
	var srv *service.Server
	var h http.Handler
	var ref *reference
	var adv *advisor.Advisor
	for range reps {
		if srv != nil {
			srv.Close()
		}
		t := time.Now()
		advs, err := trainAdvisors([]string{serveArch})
		if err != nil {
			return nil, err
		}
		adv = advs[serveArch]
		if srv, h, ref, err = newServer(adv, opt.Traced); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	defer srv.Close()

	// The prewarmed rankings are checked against the goldens too: the
	// service must rank exactly as the direct pipeline does.
	var g, update goldens
	if opt.UpdateGoldens {
		update = goldens{}
	} else {
		var err error
		if g, err = loadGoldens(opt.GoldenPath); err != nil {
			return nil, err
		}
	}
	speedups, errs, err := serveQuality(ctx, adv, ref, g, update, out)
	if err != nil {
		return nil, err
	}

	hits := &opGen{rng: rand.New(rand.NewSource(opt.Seed)), ref: ref}
	unc := &opGen{rng: rand.New(rand.NewSource(opt.Seed + 1)), ref: ref, nextTopK: missTopKBase}
	queue0 := srv.Collector().Snapshot().Histogram(obs.MetricServiceQueueWaitNS)
	gc := readGC()
	var all []record
	var rungs []rungDetail
	maxRPS := 0.0
	var offset time.Duration
	for i, rate := range serveRates {
		if i >= gatedRungs && maxRPS < serveRates[i-1] {
			break // a lower rate was not sustained; the rest only probe max_rps
		}
		recs := mixedRung(h, hits, unc, rate, rungDur(i), offset)
		offset += rungDur(i)
		all = append(all, recs...)
		d := summarizeRung(rate, recs)
		rungs = append(rungs, d)
		if d.Sustained && (i == 0 || maxRPS == serveRates[i-1]) {
			maxRPS = rate
		}
	}
	cpu0 := cpuTime()
	solo := missLoop(h, unc, soloDur, out)
	soloCPU := cpuTime() - cpu0
	gcLayer(gc, out.Layers)

	// The request quantiles are the hits', the job quantiles the uncached
	// requests', both at the gated rate, where they ran side by side.
	var lat, jobs []timed
	var lags []float64
	handler := map[opClass][]float64{}
	var rankReqs, cacheHits, shed float64
	for _, r := range all {
		out.Attempted++
		if r.problem != "" {
			out.fail("%s", r.problem)
		}
		if r.rate <= serveRates[gatedRungs-1] {
			if r.class == opHit {
				lat = append(lat, timed{at: r.at, ms: ms(r.latency)})
				lags = append(lags, us(r.lag))
			} else {
				jobs = append(jobs, timed{at: r.at, ms: ms(r.latency)})
			}
		}
		handler[r.class] = append(handler[r.class], us(r.handler))
		if r.class != opPredict {
			rankReqs++
			if r.cache == "hit" {
				cacheHits++
			}
		}
		if r.status == http.StatusTooManyRequests || r.status == http.StatusGatewayTimeout {
			shed++
		}
	}
	out.E2E["setup_s"] = median(setups)
	// Latencies are medians over short windows of the window's quantile,
	// and the rate is the median window's: see windowed. The rate is the
	// closed loop's, which has the service to itself.
	out.E2E["throughput_per_s"] = windowed(solo, jobWindow, func(v []float64) float64 { return 1e3 / mean(v) })
	out.E2E["req_p50_ms"] = windowed(lat, reqWindow, p50)
	out.E2E["req_p90_ms"] = windowed(lat, reqWindow, p90)
	out.E2E["job_p50_ms"] = windowed(jobs, jobWindow, p50)
	out.E2E["job_p90_ms"] = windowed(jobs, jobWindow, p90)
	out.E2E["top1_speedup"] = geomean(speedups)
	out.E2E["top1_error_pct"] = mean(errs)
	out.E2E["ok_ratio"] = float64(out.Attempted-out.Failed) / float64(out.Attempted)

	// The dispatcher's lateness is part of every measured latency; once it
	// is a sizeable share of the request p90, that figure says more about
	// the load generator than about the service.
	lagP50, lagP90, lagP99 := quantile(lags, 0.5), quantile(lags, 0.9), quantile(lags, 0.99)
	lagTrusted := lagP90 <= 0.5*1e3*out.E2E["req_p90_ms"]
	if !lagTrusted {
		fmt.Fprintf(os.Stderr, "perfbench: WARNING: dispatcher lag p90 %.0f us against request p90 %.0f us; the request latencies measure the load generator\n",
			lagP90, 1e3*out.E2E["req_p90_ms"])
	}

	L := out.Layers
	L["service.handler_hit_us"] = orZero(median(handler[opHit]))
	L["service.handler_miss_us"] = orZero(median(handler[opMiss]))
	L["service.handler_predict_us"] = orZero(median(handler[opPredict]))
	L["service.cache_hit_ratio"] = ratio(cacheHits, rankReqs)
	L["service.shed"] = shed
	queue := histDelta(queue0, srv.Collector().Snapshot().Histogram(obs.MetricServiceQueueWaitNS))
	L["service.queue_wait_p50_ms"] = histQuantile(queue, 0.5) / 1e6
	L["service.queue_wait_p90_ms"] = histQuantile(queue, 0.9) / 1e6
	if opt.Traced {
		for stage, v := range stageSelfTimes(srv.Collector().Timeline().Events()) {
			L["service.stage."+stage+"_us"] = orZero(median(v))
		}
	}
	L["loadgen.lag_p50_us"] = lagP50
	L["loadgen.lag_p99_us"] = lagP99
	L["loadgen.max_rps"] = maxRPS

	detail := map[string]any{"setup_s": setups, "rungs": rungs, "lag_trusted": lagTrusted, "lag_p90_us": lagP90,
		"gated_uncached_share": ratio(float64(len(jobs)), float64(len(jobs)+len(lat))), "closed_loop_misses": len(solo),
		"closed_loop_cpu_ms_per_miss": ms(soloCPU) / float64(max(1, len(solo)))}
	if opt.Traced {
		// The pipeline layers of the uncached work, timed from outside on
		// the job a miss runs on a pool worker, at the worker's parallelism.
		probe := []adviseJob{{serveArch, missKernel, 1, "exhaustive"}}
		st, err := runAdviseLoop(ctx, opt.Seed, true, time.Second, serveParallelism, probe, map[string]*advisor.Advisor{serveArch: adv}, g, update, out)
		if err != nil {
			return nil, err
		}
		st.layers(L)
		detail["pipeline_jobs"] = st.details()
	}
	if update != nil {
		if err := writeGoldens(opt.GoldenPath, update); err != nil {
			return nil, err
		}
	}
	out.E2E["peak_rss_mb"] = peakRSSMB()
	out.Detail = detail
	return out, nil
}

// summarizeRung reduces one rate's records to its report line.
func summarizeRung(rate float64, recs []record) rungDetail {
	var hits, unc, lags []float64
	for _, r := range recs {
		if r.class == opHit {
			hits = append(hits, us(r.latency))
			lags = append(lags, us(r.lag))
		} else {
			unc = append(unc, ms(r.latency))
		}
	}
	d := rungDetail{
		RateRPS: rate, Sent: len(recs),
		HitP50US: quantile(hits, 0.5), HitP90US: quantile(hits, 0.9), HitP99US: quantile(hits, 0.99),
		Uncached: len(unc), UncachedP50: orZero(quantile(unc, 0.5)), UncachedP90: orZero(quantile(unc, 0.9)),
		LagP50US: quantile(lags, 0.5), LagP90US: quantile(lags, 0.9), LagP99US: quantile(lags, 0.99),
	}
	d.Sustained = d.HitP90US <= us(hitP90Limit) && d.LagP90US <= us(lagP90Limit)
	return d
}

// serveQuality checks each prewarmed ranking's top-K against the goldens
// and simulates its top-1 against the sample, outside any timed region.
func serveQuality(ctx context.Context, adv *advisor.Advisor, ref *reference, g, update goldens, out *outcome) (speedups, errs []float64, err error) {
	for _, k := range serveHitKernels {
		spec, _ := kernels.Get(k)
		tr := spec.Trace(1)
		sample, err := spec.SamplePlacement(tr)
		if err != nil {
			return nil, nil, err
		}
		rows := ref.rows[k]
		key := adviseJob{serveArch, k, 1, "exhaustive"}.key()
		got := make([]goldenRow, 0, topK)
		for _, r := range rows[:min(topK, len(rows))] {
			got = append(got, goldenRow{Placement: r.Placement, PredictedNS: r.PredictedNS})
		}
		out.Attempted++
		if update != nil {
			update[key] = got
		} else if msg := g.check(key, got); msg != "" {
			out.fail("golden mismatch (service): %s", msg)
		}
		best, err := placement.Parse(tr, rows[0].Placement)
		if err != nil {
			return nil, nil, err
		}
		s := sim.New(adv.Cfg)
		ms0, err := s.RunContext(ctx, tr, sample, sample)
		if err != nil {
			return nil, nil, err
		}
		ms1, err := s.RunContext(ctx, tr, sample, best)
		if err != nil {
			return nil, nil, err
		}
		speedups = append(speedups, ms0.TimeNS/ms1.TimeNS)
		errs = append(errs, 100*math.Abs(rows[0].PredictedNS-ms1.TimeNS)/ms1.TimeNS)
	}
	return speedups, errs, nil
}

// histDelta is the histogram of the observations made between two
// snapshots of it.
func histDelta(before, after *obs.HistSnap) *obs.HistSnap {
	d := &obs.HistSnap{Bounds: after.Bounds, Counts: append([]int64(nil), after.Counts...),
		Count: after.Count - before.Count, Sum: after.Sum - before.Sum}
	for i := range d.Counts {
		d.Counts[i] -= before.Counts[i]
	}
	return d
}

// histQuantile estimates a quantile from bucket counts, interpolating
// log-linearly inside the bucket (the service's buckets are decades); 0
// when the histogram is empty.
func histQuantile(h *obs.HistSnap, q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	rank := q * float64(h.Count)
	var cum float64
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			if i >= len(h.Bounds) {
				return h.Bounds[len(h.Bounds)-1] // the +Inf bucket: report its floor
			}
			hi := h.Bounds[i]
			lo := hi / 10
			if i > 0 {
				lo = h.Bounds[i-1]
			}
			frac := (rank - cum) / float64(c)
			return lo * math.Pow(hi/lo, frac)
		}
		cum += float64(c)
	}
	return h.Bounds[len(h.Bounds)-1]
}

// reportedStages are the request stages whose self time is reported.
var reportedStages = map[string]bool{"decode": true, "cache": true, "queue": true, "search": true, "encode": true}

// stageSelfTimes reads the per-request stage spans the service records for
// sampled requests (one track per request) and returns each reported
// stage's self times in microseconds: the span's duration minus the stage
// spans of the same request nested inside it.
func stageSelfTimes(events []obs.Event) map[string][]float64 {
	byTrack := map[string][]obs.Event{}
	for _, e := range events {
		if e.Kind == obs.SpanEvent && strings.HasPrefix(e.Track, "req/") {
			byTrack[e.Track] = append(byTrack[e.Track], e)
		}
	}
	out := map[string][]float64{}
	for _, spans := range byTrack {
		for i, s := range spans {
			if !reportedStages[s.Name] {
				continue
			}
			self := s.DurNS
			for j, c := range spans {
				if j != i && isStage(c.Name) && c.DurNS < s.DurNS &&
					c.TsNS >= s.TsNS && c.TsNS+c.DurNS <= s.TsNS+s.DurNS {
					self -= c.DurNS
				}
			}
			out[s.Name] = append(out[s.Name], self/1e3)
		}
	}
	return out
}

// isStage tells stage spans from the whole-request span ("rank <id>").
func isStage(name string) bool { return !strings.Contains(name, " ") }
