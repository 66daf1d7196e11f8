// Package memsys resolves warp-level memory instructions against the HMS
// memory hierarchy: per-lane element indices become device or shared-memory
// addresses under a placement, coalesce into transactions, probe the
// appropriate caches, and finally yield the DRAM request stream. The same
// resolution drives both the analytical models (internal/core) and the
// ground-truth timing simulator (internal/sim), so the two disagree only
// about *timing*, never about which memory events occur.
package memsys

import (
	"gpuhms/internal/cache"
	"gpuhms/internal/gpu"
	"gpuhms/internal/perf"
	"gpuhms/internal/placement"
	"gpuhms/internal/replay"
	"gpuhms/internal/sharedmem"
	"gpuhms/internal/trace"
)

// Hierarchy holds the system-wide cache level (L2) and configuration.
type Hierarchy struct {
	Cfg *gpu.Config
	L2  *cache.Cache
	Sh  sharedmem.Config
}

// NewHierarchy builds the shared level of the memory hierarchy.
func NewHierarchy(cfg *gpu.Config) *Hierarchy {
	return &Hierarchy{
		Cfg: cfg,
		L2:  cache.New(cfg.L2),
		Sh:  sharedmem.FromGPU(cfg),
	}
}

// SMCaches holds the per-SM cache level (constant and texture caches).
type SMCaches struct {
	Const *cache.Cache
	Tex   *cache.Cache
}

// NewSMCaches builds one SM's private caches.
func NewSMCaches(cfg *gpu.Config) *SMCaches {
	return &SMCaches{
		Const: cache.New(cfg.Constant),
		Tex:   cache.New(cfg.Texture),
	}
}

// Reset invalidates both private caches, returning the SM to its
// freshly-built state so one allocation can serve many runs.
func (s *SMCaches) Reset() {
	s.Const.Reset()
	s.Tex.Reset()
}

// Binding fixes a trace to a placement and layout so instructions can be
// resolved to addresses.
type Binding struct {
	Trace      *trace.Trace
	Place      *placement.Placement
	Layout     *placement.Layout
	Tex2DShift uint // log2 of the 2D texture tile edge
}

// NewBinding resolves the layout of a placement and returns the binding.
func NewBinding(cfg *gpu.Config, t *trace.Trace, sample *placement.Placement, sampleLayout *placement.Layout, target *placement.Placement) *Binding {
	return &Binding{
		Trace:      t,
		Place:      target,
		Layout:     placement.Retarget(t, sampleLayout, sample, target),
		Tex2DShift: cfg.TextureBlockShift,
	}
}

// Addresses resolves one memory instruction's active lanes into byte
// addresses: device addresses for off-chip spaces (with 2D-texture
// swizzling applied) or block-local addresses for shared memory. The
// returned slice is appended to buf to let callers reuse storage.
//
// Everything but the lane index — the space, element size, base address or
// shared offset, and shared tile length — is resolved once per instruction,
// leaving one tight loop over the lanes per space.
func (b *Binding) Addresses(in *trace.Inst, buf []uint64) []uint64 {
	id := in.Array
	arr := &b.Trace.Arrays[id]
	elem := uint64(arr.Type.Bytes())
	out := buf[:0]
	switch b.Place.Of(id).Base() {
	case gpu.Shared:
		off, tile := b.Layout.SharedOff[id], placement.SharedTileElems(b.Trace, id)
		for _, ix := range in.Index {
			if ix != trace.Inactive {
				out = append(out, off+uint64(ix)%tile*elem)
			}
		}
	case gpu.Texture2D:
		base, width, shift := b.Layout.Base[id], arr.Width, b.Tex2DShift
		for _, ix := range in.Index {
			if ix != trace.Inactive {
				out = append(out, base+uint64(cache.Swizzle2D(ix, width, shift))*elem)
			}
		}
	default:
		base := b.Layout.Base[id]
		for _, ix := range in.Index {
			if ix != trace.Inactive {
				out = append(out, base+uint64(ix)*elem)
			}
		}
	}
	return out
}

// Result describes the memory-system consequences of one warp-level memory
// instruction.
type Result struct {
	Space gpu.MemSpace
	Store bool

	// Transactions is the number of first-level accesses the warp access
	// coalesced into (L2 transactions for global, texture-cache lines for
	// texture, constant words for constant, 1 for shared).
	Transactions int

	// Replays are the placement-dependent instruction replays (§III-B
	// causes (1)–(4)) triggered by this access.
	Replays replay.Breakdown

	// Cache events.
	L2Accesses, L2Misses     int
	ConstAccesses, ConstMiss int
	TexAccesses, TexMiss     int
	SharedConflicts          int

	// DRAMLines holds the line base addresses that missed all caches and
	// must be serviced by the DRAM system.
	DRAMLines []uint64
}

// Scratch holds the reusable per-caller buffers of ResolveScratch and
// AccessScratch: resolved addresses, coalesced line sets, and the DRAM miss
// list. One Scratch serves one caller's whole replay loop; the zero value is
// ready to use and the buffers grow to the high-water mark of the trace.
type Scratch struct {
	addrs []uint64
	lines []uint64
	words []uint64
	dram  []uint64
}

// Access resolves one memory instruction through the hierarchy, updating
// cache state, and reports all events. sm supplies the issuing SM's private
// caches; addrBuf is an optional reusable address buffer. The returned
// Result owns its DRAMLines. Hot loops that can tolerate a borrowed
// DRAMLines slice should use AccessScratch instead.
func (h *Hierarchy) Access(sm *SMCaches, b *Binding, in *trace.Inst, addrBuf []uint64) Result {
	sc := Scratch{addrs: addrBuf}
	return h.AccessScratch(sm, b, in, &sc)
}

// AccessScratch is Access with every intermediate buffer drawn from sc,
// making the per-instruction replay loop allocation-free once the buffers
// have grown: ResolveScratch, then ProbeLines on the resolved lines. The
// returned Result's DRAMLines aliases sc's storage: consume it before the
// next AccessScratch call on the same Scratch.
func (h *Hierarchy) AccessScratch(sm *SMCaches, b *Binding, in *trace.Inst, sc *Scratch) Result {
	r := h.ResolveScratch(b, in, sc)
	pc, dram := h.ProbeLines(sm, r.Space, r.Lines, sc.dram[:0])
	sc.dram = dram
	res := Result{
		Space:           r.Space,
		Store:           in.Op != trace.OpLoad,
		Transactions:    r.Transactions,
		Replays:         r.Replays,
		L2Accesses:      int(pc.L2Accesses),
		L2Misses:        int(pc.L2Misses),
		ConstAccesses:   int(pc.ConstAccesses),
		ConstMiss:       int(pc.ConstMisses),
		TexAccesses:     int(pc.TexAccesses),
		TexMiss:         int(pc.TexMisses),
		SharedConflicts: r.SharedConflicts,
		DRAMLines:       dram,
	}
	res.Replays.Add(replay.ConstantMiss, pc.ConstMisses)
	return res
}

// Reset clears all cache state in the hierarchy (not the per-SM caches).
func (h *Hierarchy) Reset() { h.L2.Reset() }

// Resolved is the cache-independent half of resolving one memory access: the
// per-lane addresses coalesced into first-level transactions and the replays
// that depend only on the address pattern (divergence, shared bank conflicts,
// atomic serialization). It is a pure function of (instruction, space,
// address binding) — no cache state is read or written — so it can be
// computed once per binding and reused, with ProbeLines supplying the
// cache-dependent half per evaluation. ResolveScratch followed by ProbeLines
// on the same access is AccessScratch.
type Resolved struct {
	Space gpu.MemSpace

	// Transactions is the number of first-level accesses the warp access
	// coalesced into, exactly as in Result.
	Transactions int

	// Replays holds the cache-independent replay causes only: global and
	// constant divergence, shared bank conflicts, atomic conflicts. Constant
	// cache misses (cause (2)) are cache state and come from ProbeLines.
	Replays replay.Breakdown

	SharedConflicts int

	// Lines holds the first-level cache line addresses this access probes
	// (L2 transaction lines for global, constant-cache lines for constant,
	// texture-cache lines for texture); nil for shared memory, which never
	// reaches a cache. The slice aliases the Scratch — consume it before the
	// next ResolveScratch call on the same Scratch.
	Lines []uint64
}

// ResolveScratch computes the cache-independent resolution of one memory
// instruction: addresses, coalescing, and static replays, with the
// first-level line stream left unprobed. It reads no cache state, so it is
// safe to call concurrently on a shared Hierarchy (unlike AccessScratch).
// Once sc's buffers have grown it allocates nothing.
func (h *Hierarchy) ResolveScratch(b *Binding, in *trace.Inst, sc *Scratch) Resolved {
	sp := b.Place.Of(in.Array)
	res := Resolved{Space: sp}
	addrs := b.Addresses(in, sc.addrs)
	sc.addrs = addrs
	if len(addrs) == 0 {
		res.Transactions = 1
		return res
	}

	// Atomics serialize over same-address lanes regardless of the memory
	// space (§III-B replay cause (6)); the per-space effects below apply on
	// top.
	if in.Op == trace.OpAtomic {
		res.Replays.Add(replay.AtomicConflict, replay.AtomicConflictReplays(addrs))
	}

	switch sp.Base() {
	case gpu.Shared:
		res.Transactions = 1
		conflicts := replay.SharedConflictReplays(h.Sh, addrs)
		res.SharedConflicts = int(conflicts)
		res.Replays.Add(replay.SharedBankConflict, conflicts)

	case gpu.Global:
		lines := cache.LinesTouchedInto(sc.lines, addrs, h.Cfg.TransactionBytes)
		sc.lines = lines
		res.Transactions = len(lines)
		res.Replays.Add(replay.GlobalDivergence, int64(len(lines)-1))
		res.Lines = lines

	case gpu.Constant:
		// Constant memory serializes over distinct words; each distinct
		// word beyond the first is a divergence replay (cause 3). The
		// distinct constant-cache lines are probed by ProbeLines, where
		// each miss is one replay (cause 2) and one L2 access.
		words := cache.LinesTouchedInto(sc.words, addrs, b.Trace.Array(in.Array).Type.Bytes())
		sc.words = words
		res.Replays.Add(replay.ConstantDivergence, int64(len(words)-1))
		lines := cache.LinesTouchedInto(sc.lines, addrs, h.Cfg.Constant.LineBytes)
		sc.lines = lines
		res.Transactions = len(words)
		res.Lines = lines

	case gpu.Texture1D, gpu.Texture2D:
		lines := cache.LinesTouchedInto(sc.lines, addrs, h.Cfg.Texture.LineBytes)
		sc.lines = lines
		res.Transactions = len(lines)
		res.Lines = lines
	}
	return res
}

// CountAccess adds one memory access's request, replay and bank-conflict
// counters to ev: the request counter of its space, its replays by reason,
// and its shared-memory bank conflicts. The simulator (per Result) and the
// model (per Resolved) both count through it, so the two map an access onto
// the same counters; each adds its own cache traffic and miss counters. A
// Resolved carries no constant-miss replays, which are cache state: the
// model takes those from ProbeLines.
func CountAccess(ev *perf.Events, space gpu.MemSpace, replays *replay.Breakdown, sharedConflicts int) {
	switch space.Base() {
	case gpu.Global:
		ev.GlobalRequests++
	case gpu.Constant:
		ev.ConstantRequest++
	case gpu.Texture1D, gpu.Texture2D:
		ev.TextureRequests++
	case gpu.Shared:
		ev.SharedRequests++
	}
	ev.ReplayGlobalDiv += replays.ByReason[replay.GlobalDivergence]
	ev.ReplayConstMiss += replays.ByReason[replay.ConstantMiss]
	ev.ReplayConstDiv += replays.ByReason[replay.ConstantDivergence]
	ev.ReplayShared += replays.ByReason[replay.SharedBankConflict]
	ev.ReplayAtomic += replays.ByReason[replay.AtomicConflict]
	ev.SharedBankConflicts += int64(sharedConflicts)
}

// ProbeCounts are the cache-dependent outcomes of replaying one access's
// first-level lines through the shared caches.
type ProbeCounts struct {
	ConstAccesses int64
	// ConstMisses counts constant-cache misses; each one is also an
	// instruction replay (§III-B cause (2)).
	ConstMisses int64
	TexAccesses int64
	TexMisses   int64
	L2Accesses  int64
	L2Misses    int64
}

// ProbeLines is the cache-dependent half of an access: it replays one
// access's first-level lines (Resolved.Lines) through the shared caches in
// line order, updating their state, and appends the lines that miss
// everything — the DRAM requests — to dram.
// Shared-memory accesses have no lines and probe nothing. Because the caches
// are shared, the outcome depends on every access probed before this one:
// this is the cross-array cache interaction (one array evicting another's
// lines) that per-array resolution deliberately leaves out.
func (h *Hierarchy) ProbeLines(sm *SMCaches, sp gpu.MemSpace, lines []uint64, dram []uint64) (ProbeCounts, []uint64) {
	var pc ProbeCounts
	switch sp.Base() {
	case gpu.Global:
		for _, ln := range lines {
			pc.L2Accesses++
			if !h.L2.Access(ln) {
				pc.L2Misses++
				dram = append(dram, ln)
			}
		}
	case gpu.Constant:
		pc.ConstAccesses = int64(len(lines))
		for _, ln := range lines {
			if !sm.Const.Access(ln) {
				pc.ConstMisses++
				pc.L2Accesses++
				if !h.L2.Access(ln) {
					pc.L2Misses++
					dram = append(dram, ln)
				}
			}
		}
	case gpu.Texture1D, gpu.Texture2D:
		pc.TexAccesses = int64(len(lines))
		for _, ln := range lines {
			if !sm.Tex.Access(ln) {
				pc.TexMisses++
				pc.L2Accesses++
				if !h.L2.Access(ln) {
					pc.L2Misses++
					dram = append(dram, ln)
				}
			}
		}
	}
	return pc, dram
}
