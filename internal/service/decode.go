package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"strings"

	"gpuhms/internal/advisor"
	"gpuhms/internal/fleet"
	"gpuhms/internal/gpu"
	"gpuhms/internal/hmserr"
)

// Request-hardening limits. A public endpoint sees hostile bodies; these
// bounds keep a single request from allocating unbounded traces or spinning
// forever, and are enforced at decode time so the worker pool only ever sees
// sane work.
const (
	// MaxBodyBytes caps a request body.
	MaxBodyBytes = 1 << 20
	// MaxScale caps the workload scale factor. It does not bound
	// per-request memory: trace size grows with scale at a rate that
	// depends on the kernel — cubically for matrixMul and quadratically for
	// nbody, stencil2d, dct8x8 and transpose — so a decoder-accepted scale
	// can still need more memory than the host has.
	MaxScale = 64
	// MaxSpecLen caps a placement spec string.
	MaxSpecLen = 4096
	// MaxTopK caps the kept ranking length.
	MaxTopK = 100000
	// MaxTimeoutMS caps the client-requested search deadline (10 minutes).
	MaxTimeoutMS = 600000
	// MaxParallelism caps the per-request ranking worker count: enough for
	// any machine this serves on, small enough that a hostile request
	// cannot ask for an absurd goroutine fan-out.
	MaxParallelism = 64
	// MaxCompareArches caps the architectures one /v1/compare call may fan
	// out over: each arch is a full ranking search.
	MaxCompareArches = 8
)

// Service-level error classes, alongside the hmserr taxonomy. Handlers map
// them (and the hmserr sentinels, and context errors) onto HTTP statuses
// with statusOf; see docs/SERVICE.md for the full table.
var (
	// ErrBadRequest: the body is not valid JSON or a field is out of range.
	ErrBadRequest = errors.New("bad request")
	// ErrUnknownKernel: the named workload is not registered.
	ErrUnknownKernel = errors.New("unknown kernel")
	// ErrUnknownArch: the named architecture has no warm advisor.
	ErrUnknownArch = errors.New("unknown architecture")
	// ErrQueueFull: the worker queue is at capacity (backpressure; 429).
	ErrQueueFull = errors.New("queue full")
	// ErrShuttingDown: the server is draining and accepts no new work.
	ErrShuttingDown = errors.New("server shutting down")
	// ErrDeadlineBudget: load shedding rejected the request because its
	// remaining deadline could not cover the observed median service time.
	// It wraps context.DeadlineExceeded, so it maps to 504 like the timeout
	// it was about to become — but without wasting a worker first.
	ErrDeadlineBudget = fmt.Errorf("deadline budget below observed service time: %w", context.DeadlineExceeded)
)

// StatusClientClosedRequest is the non-standard 499 status (nginx lineage)
// for requests whose client went away before the advisor finished.
const StatusClientClosedRequest = 499

// badf builds an ErrBadRequest with detail.
func badf(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{ErrBadRequest}, args...)...)
}

// decodeJSON unmarshals a bounded body into dst, folding every failure mode
// (oversize, syntax, wrong types) into ErrBadRequest.
func decodeJSON(data []byte, dst any) error {
	if len(data) == 0 {
		return badf("empty body")
	}
	if err := json.Unmarshal(data, dst); err != nil {
		return badf("%v", err)
	}
	return nil
}

// canonicalArch normalizes a user-facing architecture string at decode
// time: trimmed, lowercased, and — when the registry knows the name or one
// of its aliases — replaced by the canonical registry name, so
// "  Tesla-K80 " and "k80" resolve to one advisor key and one cache key.
// Unknown names pass through normalized; existence is checked later against
// the warm advisor set (advisorFor), which maps misses to 404 with the
// available names in the message.
func canonicalArch(arch string) string {
	if canon, err := gpu.Canonical(arch); err == nil {
		return canon
	}
	return strings.ToLower(strings.TrimSpace(arch))
}

// DecodeRankRequest parses and validates a /v1/rank body. It is the fuzzed
// surface of the service (FuzzDecodeRankRequest): on any input it either
// returns a request whose fields are within the limits above, or an error
// wrapping ErrBadRequest — it never panics, and a handler never turns its
// error into a 5xx. Kernel and architecture existence are checked later,
// against the server's registry.
func DecodeRankRequest(data []byte) (*RankRequest, error) {
	var req RankRequest
	if err := decodeJSON(data, &req); err != nil {
		return nil, err
	}
	if req.Kernel == "" {
		return nil, badf("missing kernel")
	}
	if req.Scale == 0 {
		req.Scale = 1
	}
	if err := validateCommon(req.Arch, req.Kernel, req.Scale, req.Sample, req.TimeoutMS); err != nil {
		return nil, err
	}
	req.Arch = canonicalArch(req.Arch)
	if err := validateSearchKnobs(req.TopK, req.MaxCandidates, req.Parallelism, &req.Strategy); err != nil {
		return nil, err
	}
	return &req, nil
}

// validateSearchKnobs screens the search-shaping fields shared by rank and
// compare requests, canonicalizing the strategy spec in place.
func validateSearchKnobs(topK, maxCandidates, parallelism int, strategy *string) error {
	if topK < 0 || topK > MaxTopK {
		return badf("top_k %d out of [0,%d]", topK, MaxTopK)
	}
	if maxCandidates < 0 {
		return badf("negative max_candidates %d", maxCandidates)
	}
	if parallelism < 0 || parallelism > MaxParallelism {
		return badf("parallelism %d out of [0,%d]", parallelism, MaxParallelism)
	}
	if *strategy != "" {
		// Normalize to the canonical spec ("Beam" → error, "beam" →
		// "beam-4") so equivalent spellings share one cache key. Unknown
		// strategies wrap hmserr.ErrUnknownStrategy — a 400, never a 5xx.
		strat, err := advisor.ParseStrategy(*strategy)
		if err != nil {
			return err
		}
		*strategy = strat.Spec()
	}
	return nil
}

// DecodeCompareRequest parses and validates a /v1/compare body under the
// same contract as DecodeRankRequest: any input yields either a request
// whose fields are within limits (arches deduplicated and canonicalized) or
// an error wrapping ErrBadRequest / ErrUnknownStrategy — never a panic,
// never a 5xx. An empty arch list is legal and means "every warm arch".
func DecodeCompareRequest(data []byte) (*CompareRequest, error) {
	var req CompareRequest
	if err := decodeJSON(data, &req); err != nil {
		return nil, err
	}
	if req.Kernel == "" {
		return nil, badf("missing kernel")
	}
	if req.Scale == 0 {
		req.Scale = 1
	}
	if len(req.Arches) > MaxCompareArches {
		return nil, badf("%d arches out of [0,%d]", len(req.Arches), MaxCompareArches)
	}
	seen := make(map[string]bool, len(req.Arches))
	for i, a := range req.Arches {
		if len(a) > 64 {
			return nil, badf("arch name longer than 64 bytes")
		}
		canon := canonicalArch(a)
		if canon == "" {
			return nil, badf("empty arch name in arches")
		}
		if seen[canon] {
			return nil, badf("duplicate arch %q", canon)
		}
		seen[canon] = true
		req.Arches[i] = canon
	}
	if err := validateCommon("", req.Kernel, req.Scale, req.Sample, req.TimeoutMS); err != nil {
		return nil, err
	}
	if err := validateSearchKnobs(req.TopK, req.MaxCandidates, req.Parallelism, &req.Strategy); err != nil {
		return nil, err
	}
	return &req, nil
}

// DecodePredictRequest parses and validates a /v1/predict body under the
// same contract as DecodeRankRequest.
func DecodePredictRequest(data []byte) (*PredictRequest, error) {
	var req PredictRequest
	if err := decodeJSON(data, &req); err != nil {
		return nil, err
	}
	if req.Kernel == "" {
		return nil, badf("missing kernel")
	}
	if req.Target == "" {
		return nil, badf("missing target placement")
	}
	if len(req.Target) > MaxSpecLen {
		return nil, badf("target spec longer than %d bytes", MaxSpecLen)
	}
	if req.Scale == 0 {
		req.Scale = 1
	}
	if err := validateCommon(req.Arch, req.Kernel, req.Scale, req.Sample, req.TimeoutMS); err != nil {
		return nil, err
	}
	req.Arch = canonicalArch(req.Arch)
	return &req, nil
}

// validateCommon screens the fields shared by rank and predict requests.
func validateCommon(arch, kernel string, scale int, sample string, timeoutMS int) error {
	if len(kernel) > 256 {
		return badf("kernel name longer than 256 bytes")
	}
	if len(arch) > 64 {
		return badf("arch name longer than 64 bytes")
	}
	if scale < 1 || scale > MaxScale {
		return badf("scale %d out of [1,%d]", scale, MaxScale)
	}
	if len(sample) > MaxSpecLen {
		return badf("sample spec longer than %d bytes", MaxSpecLen)
	}
	if timeoutMS < 0 || timeoutMS > MaxTimeoutMS {
		return badf("timeout_ms %d out of [0,%d]", timeoutMS, MaxTimeoutMS)
	}
	return nil
}

// statusOf maps the error taxonomy onto HTTP statuses:
//
//	ErrBadRequest, ErrIllegalPlacement, ErrUnknownStrategy,
//	ErrInvalidTrace, ErrInvalidProfile,
//	ErrBudgetExceeded                   → 400 Bad Request
//	ErrUnknownKernel, ErrUnknownArch,
//	fleet.ErrUnknownKernel,
//	fleet.ErrUnknownMix                 → 404 Not Found
//	ErrCapacityExceeded                 → 422 Unprocessable Entity
//	ErrQueueFull                        → 429 Too Many Requests
//	context.Canceled                    → 499 Client Closed Request
//	ErrShuttingDown                     → 503 Service Unavailable
//	context.DeadlineExceeded,
//	ErrDeadlineBudget                   → 504 Gateway Timeout
//	anything else                       → 500 Internal Server Error
//
// ErrBudgetExceeded never reaches this map from a single-kernel ranking —
// a budget-stopped search is a successful partial result (206), assembled
// by the rank handler — but a fleet solve with half-built menus has no
// meaningful partial answer, so there it is a 400. ErrCapacityExceeded
// chains onto ErrIllegalPlacement, so the capacity case must test first:
// the request was well-formed, the placement just does not fit (422).
func statusOf(err error) int {
	switch {
	case errors.Is(err, hmserr.ErrCapacityExceeded):
		return http.StatusUnprocessableEntity
	case errors.Is(err, ErrBadRequest),
		errors.Is(err, hmserr.ErrIllegalPlacement),
		errors.Is(err, hmserr.ErrUnknownStrategy),
		errors.Is(err, hmserr.ErrInvalidTrace),
		errors.Is(err, hmserr.ErrInvalidProfile),
		errors.Is(err, hmserr.ErrBudgetExceeded):
		return http.StatusBadRequest
	case errors.Is(err, ErrUnknownKernel), errors.Is(err, ErrUnknownArch),
		errors.Is(err, fleet.ErrUnknownKernel), errors.Is(err, fleet.ErrUnknownMix):
		return http.StatusNotFound
	case errors.Is(err, ErrQueueFull):
		return http.StatusTooManyRequests
	case errors.Is(err, context.Canceled):
		return StatusClientClosedRequest
	case errors.Is(err, ErrShuttingDown):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	default:
		return http.StatusInternalServerError
	}
}

// codeOf names the error class for the machine-readable ErrorResponse.Code.
func codeOf(err error) string {
	switch {
	case errors.Is(err, ErrUnknownKernel), errors.Is(err, fleet.ErrUnknownKernel):
		return "unknown_kernel"
	case errors.Is(err, fleet.ErrUnknownMix):
		return "unknown_mix"
	case errors.Is(err, ErrUnknownArch):
		return "unknown_arch"
	case errors.Is(err, ErrBadRequest):
		return "bad_request"
	case errors.Is(err, hmserr.ErrUnknownStrategy):
		return "unknown_strategy"
	case errors.Is(err, hmserr.ErrCapacityExceeded):
		return "capacity_exceeded"
	case errors.Is(err, hmserr.ErrBudgetExceeded):
		return "budget_exceeded"
	case errors.Is(err, hmserr.ErrIllegalPlacement):
		return "illegal_placement"
	case errors.Is(err, hmserr.ErrInvalidTrace):
		return "invalid_trace"
	case errors.Is(err, hmserr.ErrInvalidProfile):
		return "invalid_profile"
	case errors.Is(err, ErrQueueFull):
		return "queue_full"
	case errors.Is(err, ErrShuttingDown):
		return "shutting_down"
	case errors.Is(err, context.Canceled):
		return "canceled"
	case errors.Is(err, ErrDeadlineBudget):
		return "shed_deadline"
	case errors.Is(err, context.DeadlineExceeded):
		return "deadline"
	default:
		return "internal"
	}
}
