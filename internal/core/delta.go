package core

// The decomposed evaluator. The §IV trace analysis used to be one monolithic
// lockstep walk per (placement) evaluation; here it is split into three parts
// so single-array placement moves are cheap (ROADMAP item 1):
//
//   - program: everything placement-independent — the lockstep instruction
//     schedule, the issue-slot sequence of non-memory instructions, barrier
//     counts, the per-warp MLP statistic, and the non-memory event counters.
//     Built once per trace.
//
//   - contribution: one array's accesses resolved under one (space, address)
//     binding, cache-independently: per-lane addresses coalesced into
//     first-level transactions, the replays that depend only on the address
//     pattern (divergence, shared bank conflicts, atomic serialization), and
//     the aggregated counters those imply. A contribution is a pure function
//     of (array, space, address key) — it reads no cache state — so it is
//     built once and cached. This is where the expensive work lives: per-lane
//     address generation, coalescing sorts, replay math.
//
//   - merge: the interaction term. Per-array contributions are stitched back
//     together in lockstep order and replayed through ONE shared cache
//     hierarchy (L2, constant, texture) plus the DRAM analyzer — the same
//     state evolution as the monolithic walk, so cross-array cache contention
//     (one array evicting another's lines) and the shared bank/row-buffer
//     statistics are modeled with full fidelity. The proxy clock is advanced
//     by exactly the same sequence of floating-point additions as the
//     monolithic walk, so merged analyses are byte-identical to it, not
//     merely close. This is the only per-evaluation cost: cache probes per
//     first-level line, never per lane.
//
// Predict, PredictState, PredictDelta, and PredictFull all run through this
// one path, which is what makes delta and full evaluations byte-identical: a
// "delta" differs only in how many contributions come from cache instead of
// being rebuilt, never in the math.

import (
	"sync"

	"gpuhms/internal/cache"
	"gpuhms/internal/dram"
	"gpuhms/internal/gpu"
	"gpuhms/internal/memsys"
	"gpuhms/internal/perf"
	"gpuhms/internal/placement"
	"gpuhms/internal/trace"
)

// memRef is one warp-level memory instruction of the lockstep schedule.
type memRef struct {
	inst    *trace.Inst
	array   trace.ArrayID
	ordinal int32 // position in the array's own access sequence
}

// program is the placement-independent part of the §IV analysis: the lockstep
// schedule of the trace with every quantity that no placement can change.
// It is immutable once built and shared by all clones of a Predictor.
type program struct {
	cfg *gpu.Config
	t   *trace.Trace

	// refs lists memory instructions in lockstep order (the round-robin
	// warp interleaving of the hardware scheduler).
	refs []memRef
	// slotSeq holds the issue slots of each non-memory instruction record in
	// lockstep order (FP64 double-issue included). merge replays it addition
	// by addition so the proxy clock accumulates in exactly the monolithic
	// walk's floating-point order.
	slotSeq []int32
	// refPre[i] is the number of slotSeq entries issued before ref i.
	refPre []int32
	// arrayInsts[id] lists one array's memory instructions in lockstep
	// order; contributions are built by walking it.
	arrayInsts [][]*trace.Inst

	baseSlots  int64 // non-memory issue slots (FP64 double-issue included)
	baseExec   int64 // non-memory executed instructions
	baseEvents perf.Events
	syncs      int64
	mlp        float64
	activeSMs  int
	imbalance  float64
	warpsPerSM float64
	slotNS     float64

	// l2x is the L2's address decomposition, used to reason about set
	// occupancy analytically (the eviction-free fast merge).
	l2x cache.Indexer
}

// newProgram runs the placement-independent lockstep walk once. Warps advance
// in lockstep (one instruction per warp per round), exactly as the old
// monolithic analysis did; see merge for how the proxy clock is recovered.
func newProgram(cfg *gpu.Config, t *trace.Trace) *program {
	p := &program{cfg: cfg, t: t, activeSMs: cfg.ActiveSMs(t.Launch.Blocks)}
	p.slotNS = cfg.NSPerCycle() / float64(p.activeSMs)
	p.l2x = cache.NewIndexer(cfg.L2)
	p.arrayInsts = make([][]*trace.Inst, len(t.Arrays))
	counts := make([]int32, len(t.Arrays))

	pcs := make([]int, len(t.Warps))
	inRun := make([]bool, len(t.Warps)) // per-warp consecutive-load run state
	remaining := len(t.Warps)
	var loadRuns, loadsInRuns int64

	for remaining > 0 {
		for wi := range t.Warps {
			pc := pcs[wi]
			if pc >= len(t.Warps[wi].Inst) {
				continue
			}
			in := &t.Warps[wi].Inst[pc]
			pcs[wi]++
			if pcs[wi] == len(t.Warps[wi].Inst) {
				remaining--
			}

			if !in.Op.IsMem() {
				inRun[wi] = false
				slots := int64(in.Count)
				if in.Op == trace.OpFP64 {
					slots *= 2
				}
				if in.Op == trace.OpSync {
					p.syncs++
				}
				p.baseSlots += slots
				p.baseExec += int64(in.Count)
				p.baseEvents.InstExecuted += int64(in.Count)
				p.baseEvents.InstIssued += int64(in.Count)
				p.baseEvents.IssueSlots += slots
				if in.Op == trace.OpInt {
					p.baseEvents.InstInteger += int64(in.Count)
				}
				p.slotSeq = append(p.slotSeq, int32(slots))
				continue
			}

			p.refs = append(p.refs, memRef{inst: in, array: in.Array, ordinal: counts[in.Array]})
			counts[in.Array]++
			p.arrayInsts[in.Array] = append(p.arrayInsts[in.Array], in)
			p.refPre = append(p.refPre, int32(len(p.slotSeq)))

			// The consecutive-load run statistic (MLP) depends only on the op
			// sequence, never on where arrays live.
			if in.Op == trace.OpLoad {
				if inRun[wi] {
					loadsInRuns++
				} else {
					inRun[wi] = true
					loadRuns++
					loadsInRuns++
				}
			} else {
				inRun[wi] = false
			}
		}
	}

	p.mlp = 1
	if loadRuns > 0 {
		p.mlp = float64(loadsInRuns) / float64(loadRuns)
	}
	p.warpsPerSM = cfg.ResidentWarps(t.Launch.TotalWarps(), t.Launch.Blocks)
	p.imbalance = 1
	if blocks := t.Launch.Blocks; blocks > p.activeSMs {
		perSM := float64(blocks) / float64(p.activeSMs)
		worst := float64((blocks + p.activeSMs - 1) / p.activeSMs)
		p.imbalance = worst / perSM
	}
	return p
}

// contribution is one array's cache-independent share of the analysis under
// one (space, address key) binding: per-access first-level line streams,
// static replays (divergence, shared conflicts, atomics), and the aggregated
// counters those imply. Nothing here touches cache state — cache hits and
// misses depend on what every other array did before, and are resolved by
// merge — which is what makes a contribution a pure function of its key,
// reusable across every placement that binds the array the same way.
type contribution struct {
	space gpu.MemSpace
	// addr is the address binding the contribution was resolved at (device
	// base for off-chip spaces, block-local offset for shared memory); with
	// space it identifies the binding in group-sim cache keys.
	addr uint64
	// k is the addressing-mode preamble: integer instructions issued before
	// each of this array's accesses under this space.
	k int64
	// staticReplays[o] is the o-th access's cache-independent replays:
	// divergence, shared bank conflicts, atomic serialization. Constant-cache
	// miss replays are cache state and come from the merge probe.
	staticReplays []int32
	// lines holds the first-level cache line addresses of all accesses back
	// to back; access o owns lines[lineOff[o]:lineOff[o+1]]. nil for shared
	// memory, which never reaches a cache.
	lines   []uint64
	lineOff []int32

	events     perf.Events // cache-independent event counters, preambles included
	executed   int64       // executed instructions: preamble + 1 per access
	issueSlots int64       // executed + static replays
	replays14  int64       // static part of placement-dependent replays
	offchip    int64       // accesses counted as off-chip requests
	transOff   int64       // first-level transactions of off-chip accesses

	// The remaining fields feed the eviction-free fast merge (see merge): as
	// long as no L2 set ever fills past its associativity, an L2 access hits
	// iff its line was probed before, and since the layout never packs two
	// arrays into one L2 line, "probed before" is a per-array (or per-group)
	// property — precomputable, no cache simulation needed per evaluation.
	//
	// minTag/maxTag bound the tag interval of every first-level line of any
	// off-chip contribution (empty when minTag > maxTag), for the cross-array
	// disjointness screen. The rest exist only for global-space contributions,
	// whose accesses reach the L2 directly: dramLines lists the first-touch
	// lines (one per distinct L2 tag, at its first probe, in probe order) with
	// access o owning dramLines[dramOff[o]:dramOff[o+1]], and setCounts counts
	// distinct L2 tags per L2 set (saturating). Constant/texture arrays get
	// the equivalent tables from their space's groupSim, which knows which
	// first-level accesses miss and forward to the L2.
	dramLines []uint64
	dramOff   []int32
	setCounts []uint16
	minTag    uint64
	maxTag    uint64
	l2Acc     int64 // L2 probes: one per first-level line
	l2Miss    int64 // distinct L2 tags: misses when no set ever evicts
}

// countResolvedEvents maps the cache-independent resolution of one memory
// access onto the prediction's event counters; merge adds the cache-dependent
// counters (misses, L2 traffic, constant-miss replays) per evaluation.
func countResolvedEvents(ev *perf.Events, res *memsys.Resolved, staticReplays int64) {
	ev.InstIssued += 1 + staticReplays
	ev.InstExecuted++
	ev.LdstIssued += 1 + staticReplays
	ev.IssueSlots += 1 + staticReplays
	memsys.CountAccess(ev, res.Space, &res.Replays, res.SharedConflicts)
	// Constant and texture accesses are first-level lines, known before any
	// cache is probed.
	switch res.Space.Base() {
	case gpu.Constant:
		ev.ConstAccesses += int64(len(res.Lines))
	case gpu.Texture1D, gpu.Texture2D:
		ev.TexAccesses += int64(len(res.Lines))
	}
}

// buildContribution resolves one array's accesses under (space, addr),
// cache-independently. addr is the array's device base address for off-chip
// spaces or its block-local byte offset for shared memory. resolver supplies
// geometry only; its cache state is neither read nor written.
func (p *program) buildContribution(resolver *memsys.Hierarchy, array trace.ArrayID, space gpu.MemSpace, addr uint64) *contribution {
	t := p.t
	n := len(t.Arrays)
	pl := placement.New(n)
	pl.Spaces[array] = space
	lay := &placement.Layout{Base: make([]uint64, n), SharedOff: make([]uint64, n)}
	if space == gpu.Shared {
		lay.SharedOff[array] = addr
	} else {
		lay.Base[array] = addr
	}
	b := &memsys.Binding{Trace: t, Place: pl, Layout: lay, Tex2DShift: p.cfg.TextureBlockShift}
	var sc memsys.Scratch

	insts := p.arrayInsts[array]
	c := &contribution{
		space:         space,
		addr:          addr,
		k:             int64(addrModeInstrs(space, t.Array(array).Type)),
		staticReplays: make([]int32, len(insts)),
	}
	offchip := space != gpu.Shared
	if offchip {
		c.lineOff = make([]int32, len(insts)+1)
	}
	c.minTag = ^uint64(0)
	var seenTags map[uint64]struct{}
	if space.Base() == gpu.Global {
		c.dramOff = make([]int32, len(insts)+1)
		c.setCounts = make([]uint16, p.l2x.NumSets())
		seenTags = make(map[uint64]struct{})
	}
	for o, in := range insts {
		res := resolver.ResolveScratch(b, in, &sc)
		replays := res.Replays.Total()
		c.staticReplays[o] = int32(replays)

		// Addressing preamble: k integer instructions per access.
		c.events.InstExecuted += c.k
		c.events.InstIssued += c.k
		c.events.InstInteger += c.k
		c.events.IssueSlots += c.k
		countResolvedEvents(&c.events, &res, replays)

		c.executed += c.k + 1
		c.issueSlots += c.k + 1 + replays
		c.replays14 += replays
		if offchip {
			c.offchip++
			c.transOff += int64(res.Transactions)
			c.lines = append(c.lines, res.Lines...)
			c.lineOff[o+1] = int32(len(c.lines))
			// The touched-tag interval covers every first-level line, not just
			// forwarded ones, so the disjointness screen can reason per array
			// regardless of which cache sits in front of the L2.
			for _, ln := range res.Lines {
				tag := p.l2x.Tag(ln)
				if tag < c.minTag {
					c.minTag = tag
				}
				if tag > c.maxTag {
					c.maxTag = tag
				}
			}
		}
		if space.Base() == gpu.Global {
			c.l2Acc += int64(len(res.Lines))
			for _, ln := range res.Lines {
				tag := p.l2x.Tag(ln)
				if _, ok := seenTags[tag]; ok {
					continue
				}
				seenTags[tag] = struct{}{}
				c.dramLines = append(c.dramLines, ln)
				if s := p.l2x.Set(tag); c.setCounts[s] != ^uint16(0) {
					c.setCounts[s]++
				}
				c.l2Miss++
			}
			c.dramOff[o+1] = int32(len(c.dramLines))
		}
	}
	return c
}

// groupSim is the memoized cache simulation of one per-SM cache space — the
// constant cache or the texture cache (both texture flavors share one). The
// per-SM caches see only their own space's accesses, so their hit/miss
// outcomes are a pure function of the ordered access stream of the arrays
// occupying that space: the "group". A groupSim replays that stream once
// through a private cache instance and records, per group access in lockstep
// order, the first-level miss count and the first-touch L2 lines the misses
// forward — everything the eviction-free fast merge needs. Multi-array groups
// capture intra-space contention (two texture arrays evicting each other)
// exactly.
type groupSim struct {
	missPerRef []int32  // first-level misses per group access
	dramLines  []uint64 // first-touch forwarded L2 lines, per group access
	dramOff    []int32  // access i owns dramLines[dramOff[i]:dramOff[i+1]]
	setCounts  []uint16 // distinct forwarded L2 tags per L2 set (saturating)
	misses     int64    // total first-level misses (= L2 probes of this group)
	l2Miss     int64    // distinct forwarded L2 tags
}

// buildGroupSim replays the group's accesses — refs of arrays whose
// contribution lives in the group's space — through a fresh private cache.
// member[i] selects arrays; isConst picks the constant geometry, otherwise
// texture.
func (p *program) buildGroupSim(isConst bool, member []bool, contribs []*contribution) *groupSim {
	g := &groupSim{
		setCounts: make([]uint16, p.l2x.NumSets()),
		dramOff:   []int32{0},
	}
	geom := p.cfg.Texture
	if isConst {
		geom = p.cfg.Constant
	}
	pc := cache.New(geom)
	seen := make(map[uint64]struct{})
	for i := range p.refs {
		r := &p.refs[i]
		if !member[r.array] {
			continue
		}
		c := contribs[r.array]
		var miss int32
		if c.lineOff != nil {
			lo, hi := c.lineOff[r.ordinal], c.lineOff[r.ordinal+1]
			for _, ln := range c.lines[lo:hi] {
				if pc.Access(ln) {
					continue
				}
				miss++
				tag := p.l2x.Tag(ln)
				if _, ok := seen[tag]; ok {
					continue
				}
				seen[tag] = struct{}{}
				g.dramLines = append(g.dramLines, ln)
				if s := p.l2x.Set(tag); g.setCounts[s] != ^uint16(0) {
					g.setCounts[s]++
				}
				g.l2Miss++
			}
		}
		g.misses += int64(miss)
		g.missPerRef = append(g.missPerRef, miss)
		g.dramOff = append(g.dramOff, int32(len(g.dramLines)))
	}
	return g
}

// mergeScratch holds the per-evaluation mutable state of the merge pass: the
// shared cache hierarchy, one SM's private caches (the lockstep walk models a
// single scheduler), the DRAM analyzer, and the per-access DRAM line buffer.
// One scratch serves one evaluation at a time; reset returns it to the
// fresh-analysis state so a Predictor reuses a single allocation.
type mergeScratch struct {
	hier *memsys.Hierarchy
	sm   *memsys.SMCaches
	an   *dram.Analyzer
	dram []uint64
	// sumCounts is the per-L2-set occupancy accumulator of the eviction-free
	// feasibility screen.
	sumCounts []int32
}

func newMergeScratch(cfg *gpu.Config, mapping dram.Mapping, mode dram.DistributionMode) *mergeScratch {
	return &mergeScratch{
		hier:      memsys.NewHierarchy(cfg),
		sm:        memsys.NewSMCaches(cfg),
		an:        dram.NewAnalyzer(cfg.DRAM, mapping, mode),
		sumCounts: make([]int32, cache.NewIndexer(cfg.L2).NumSets()),
	}
}

func (s *mergeScratch) reset() {
	s.hier.Reset()
	s.sm.Reset()
	s.an.Reset()
}

// merge is the interaction term: it stitches per-array contributions back
// into one Analysis with exactly the same state evolution as the monolithic
// lockstep walk — one shared L2, one set of per-SM caches, one DRAM analyzer,
// and a proxy clock advanced by the identical sequence of floating-point
// additions, so merged analyses are byte-identical to the monolithic
// analysis, not merely close. Cross-array cache contention is modeled with
// full fidelity: per-SM caches see their whole space's interleaved stream
// (via group sims or live probing), and the L2 sees every off-chip line.
//
// Two implementations produce that result:
//
//   - mergeExact probes every first-level line through the shared caches in
//     lockstep order — the general path, always correct.
//   - mergeFast skips per-evaluation cache simulation. It applies when the L2
//     provably cannot evict a valid line (l2EvictionFree): the evaluation's
//     sources touch pairwise-disjoint L2 tag ranges and no L2 set's
//     distinct-tag count exceeds its associativity. Then every L2 access hits
//     iff its tag was probed before, first touches are per-source properties
//     computed once at contribution/groupSim build time, and per-evaluation
//     work drops to the proxy-clock chain plus one dram.Analyzer.Add per DRAM
//     request. Per-SM outcomes come from group sims, which replay each
//     space's full interleaved stream — intra-space contention included.
//
// Both walks execute the same float additions in the same order and feed the
// analyzer the same (line, arrival) sequence, so the choice is invisible in
// the output; the equivalence suite and the search goldens pin this.
//
// groups may be nil (cache-bypassing evaluations); group sims are then built
// for this call only. scr must be freshly built or reset; the returned
// Analysis owns all of its data.
func (p *program) merge(pl *placement.Placement, contribs []*contribution, scr *mergeScratch, groups *groupCache) *Analysis {
	var constSim, texSim *groupSim
	if hasSpace(contribs, true) {
		constSim = p.groupFor(groups, true, contribs)
	}
	if hasSpace(contribs, false) {
		texSim = p.groupFor(groups, false, contribs)
	}
	if p.l2EvictionFree(contribs, constSim, texSim, scr) {
		return p.mergeFast(pl, contribs, constSim, texSim, scr)
	}
	return p.mergeExact(pl, contribs, scr)
}

// hasSpace reports whether any contribution lives in the constant space
// (wantConst) or either texture space (!wantConst).
func hasSpace(contribs []*contribution, wantConst bool) bool {
	for _, c := range contribs {
		if c == nil {
			continue
		}
		if wantConst && c.space.Base() == gpu.Constant {
			return true
		}
		if b := c.space.Base(); !wantConst && (b == gpu.Texture1D || b == gpu.Texture2D) {
			return true
		}
	}
	return false
}

// groupFor resolves the group sim of one per-SM cache space, through the
// group cache when one is supplied (search workloads revisit the same handful
// of space groups constantly) or built ad hoc otherwise.
func (p *program) groupFor(groups *groupCache, isConst bool, contribs []*contribution) *groupSim {
	member := make([]bool, len(contribs))
	for i, c := range contribs {
		if c == nil {
			continue
		}
		if b := c.space.Base(); isConst {
			member[i] = b == gpu.Constant
		} else {
			member[i] = b == gpu.Texture1D || b == gpu.Texture2D
		}
	}
	if groups == nil {
		return p.buildGroupSim(isConst, member, contribs)
	}
	return groups.get(p, isConst, member, contribs)
}

// l2EvictionFree is the feasibility screen of the fast merge: it proves that
// replaying this evaluation's L2 stream can never evict a valid line. The L2
// starts every evaluation empty, and LRU fill only evicts once a set holds
// more distinct tags than ways — so eviction is impossible when
//
//  1. no two arrays ever touch the same L2 tag: checked as pairwise
//     disjointness of the per-array touched-tag intervals (the layout
//     allocates arrays at ≥ line alignment and never interleaves two arrays'
//     bytes, so the interval check is exact for this repo's layouts while
//     staying safe for any other), and
//  2. no L2 set accumulates more distinct tags than ways: checked by summing
//     the per-set distinct-tag counts of every L2 traffic source — global
//     contributions plus the const/tex group sims, whose forwarded tags are
//     subsets of their member arrays' intervals.
//
// Then every hit/miss outcome reduces to first-touch. Any saturated set
// counter, interval overlap, or set overflow just means the exact walk runs —
// the screen is conservative, never wrong.
func (p *program) l2EvictionFree(contribs []*contribution, constSim, texSim *groupSim, scr *mergeScratch) bool {
	type iv struct{ min, max uint64 }
	ivs := make([]iv, 0, len(contribs))
	for _, c := range contribs {
		if c == nil || c.minTag > c.maxTag {
			continue
		}
		ivs = append(ivs, iv{c.minTag, c.maxTag})
	}
	for i := range ivs {
		for j := 0; j < i; j++ {
			if ivs[i].min <= ivs[j].max && ivs[j].min <= ivs[i].max {
				return false
			}
		}
	}
	sum := scr.sumCounts
	for i := range sum {
		sum[i] = 0
	}
	const saturated = ^uint16(0)
	ways := int32(p.l2x.Ways())
	addCounts := func(counts []uint16) bool {
		for s, cnt := range counts {
			if cnt == 0 {
				continue
			}
			if cnt == saturated {
				return false
			}
			v := sum[s] + int32(cnt)
			if v > ways {
				return false
			}
			sum[s] = v
		}
		return true
	}
	for _, c := range contribs {
		if c != nil && c.space.Base() == gpu.Global && c.l2Miss > 0 && !addCounts(c.setCounts) {
			return false
		}
	}
	if constSim != nil && constSim.l2Miss > 0 && !addCounts(constSim.setCounts) {
		return false
	}
	if texSim != nil && texSim.l2Miss > 0 && !addCounts(texSim.setCounts) {
		return false
	}
	return true
}

// analysisHeader builds the Analysis skeleton shared by both merge walks:
// the placement-independent base plus every contribution's static sums.
func (p *program) analysisHeader(contribs []*contribution) *Analysis {
	a := &Analysis{
		ActiveSMs:  p.activeSMs,
		Imbalance:  p.imbalance,
		MLP:        p.mlp,
		Syncs:      p.syncs,
		Events:     p.baseEvents,
		IssueSlots: p.baseSlots,
		Executed:   p.baseExec,
		MemInsts:   int64(len(p.refs)),
	}
	for _, c := range contribs {
		a.IssueSlots += c.issueSlots
		a.Executed += c.executed
		a.Replays14 += c.replays14
		a.OffchipReqs += c.offchip
		a.TransPerOffchip += float64(c.transOff)
		if c.space.Remote() {
			// Every off-chip request to a remote-placed array crosses the
			// interposer; the count is placement-static, so summing it here
			// keeps mergeExact and mergeFast byte-identical.
			a.RemoteReqs += c.offchip
		}
		a.Events.AddCounts(&c.events)
	}
	if a.OffchipReqs > 0 {
		a.TransPerOffchip /= float64(a.OffchipReqs)
	}
	return a
}

// finishAnalysis recovers the analyzer statistics and closes the Analysis,
// identically for both walks.
func (p *program) finishAnalysis(a *Analysis, an *dram.Analyzer, pl *placement.Placement, proxyNS float64) *Analysis {
	a.BankStreams = an.Streams()
	a.CtlStreams = an.CtlStreams()
	a.RawSpanNS = proxyNS
	a.RowCounts = an.Counts()
	a.Events.RowHits = an.Counts().Hits
	a.Events.RowMisses = an.Counts().Misses
	a.Events.RowConflicts = an.Counts().Conflicts
	a.Events.DRAMRequests = an.Counts().Total()
	a.Events.WarpsPerSM = p.warpsPerSM
	a.BankCaMean, a.BankCaStd = an.MeanCa()
	a.StagingNS = placement.SharedStagingBytes(p.t, pl) / p.cfg.SharedCopyGBs
	return a
}

// mergeExact replays every first-level line through the shared caches in
// lockstep order — the general merge walk; see merge.
func (p *program) mergeExact(pl *placement.Placement, contribs []*contribution, scr *mergeScratch) *Analysis {
	a := p.analysisHeader(contribs)

	slotNS := p.slotNS
	proxyNS := 0.0
	gi := 0
	an := scr.an
	for i := range p.refs {
		r := &p.refs[i]
		for ; gi < int(p.refPre[i]); gi++ {
			proxyNS += float64(p.slotSeq[gi]) * slotNS
		}
		c := contribs[r.array]
		proxyNS += float64(c.k) * slotNS

		var pc memsys.ProbeCounts
		dramLines := scr.dram[:0]
		if c.lineOff != nil {
			lo, hi := c.lineOff[r.ordinal], c.lineOff[r.ordinal+1]
			if lo < hi {
				pc, dramLines = scr.hier.ProbeLines(scr.sm, c.space, c.lines[lo:hi], dramLines)
			}
		}
		scr.dram = dramLines

		// Constant-cache misses are the one cache-dependent replay cause:
		// they stretch this access's issue slots, shifting every later
		// access's DRAM arrival, exactly as in the monolithic walk.
		if pc.ConstMisses > 0 {
			a.IssueSlots += pc.ConstMisses
			a.Replays14 += pc.ConstMisses
			a.Events.InstIssued += pc.ConstMisses
			a.Events.LdstIssued += pc.ConstMisses
			a.Events.IssueSlots += pc.ConstMisses
			a.Events.ReplayConstMiss += pc.ConstMisses
		}
		a.Events.ConstMisses += pc.ConstMisses
		a.Events.TexMisses += pc.TexMisses
		a.Events.L2Transactions += pc.L2Accesses
		a.Events.L2Misses += pc.L2Misses

		replays := int64(c.staticReplays[r.ordinal]) + pc.ConstMisses
		proxyNS += float64(1+replays) * slotNS

		for _, line := range dramLines {
			an.Add(line, proxyNS)
		}
	}
	for ; gi < len(p.slotSeq); gi++ {
		proxyNS += float64(p.slotSeq[gi]) * slotNS
	}
	return p.finishAnalysis(a, an, pl, proxyNS)
}

// mergeFast is the eviction-free merge walk: cache outcomes come from
// contribution and groupSim tables, so the per-evaluation work is the
// proxy-clock float chain plus one analyzer Add per DRAM request. Only valid
// after l2EvictionFree proves no L2 eviction can occur; see merge for why the
// output is then bit-for-bit the exact walk's.
func (p *program) mergeFast(pl *placement.Placement, contribs []*contribution, constSim, texSim *groupSim, scr *mergeScratch) *Analysis {
	a := p.analysisHeader(contribs)

	// Cache-dependent event counters, summed up front: integer totals don't
	// depend on interleaving order.
	var constMisses, texMisses, l2Acc, l2Miss int64
	for _, c := range contribs {
		if c != nil && c.space.Base() == gpu.Global {
			l2Acc += c.l2Acc
			l2Miss += c.l2Miss
		}
	}
	if constSim != nil {
		constMisses = constSim.misses
		l2Acc += constSim.misses
		l2Miss += constSim.l2Miss
	}
	if texSim != nil {
		texMisses = texSim.misses
		l2Acc += texSim.misses
		l2Miss += texSim.l2Miss
	}
	if constMisses > 0 {
		a.IssueSlots += constMisses
		a.Replays14 += constMisses
		a.Events.InstIssued += constMisses
		a.Events.LdstIssued += constMisses
		a.Events.IssueSlots += constMisses
		a.Events.ReplayConstMiss += constMisses
	}
	a.Events.ConstMisses += constMisses
	a.Events.TexMisses += texMisses
	a.Events.L2Transactions += l2Acc
	a.Events.L2Misses += l2Miss

	slotNS := p.slotNS
	proxyNS := 0.0
	gi := 0
	an := scr.an
	constCur, texCur := 0, 0
	for i := range p.refs {
		r := &p.refs[i]
		for ; gi < int(p.refPre[i]); gi++ {
			proxyNS += float64(p.slotSeq[gi]) * slotNS
		}
		c := contribs[r.array]
		proxyNS += float64(c.k) * slotNS

		var cm int64
		var dlines []uint64
		switch c.space.Base() {
		case gpu.Global:
			lo, hi := c.dramOff[r.ordinal], c.dramOff[r.ordinal+1]
			dlines = c.dramLines[lo:hi]
		case gpu.Constant:
			cm = int64(constSim.missPerRef[constCur])
			lo, hi := constSim.dramOff[constCur], constSim.dramOff[constCur+1]
			dlines = constSim.dramLines[lo:hi]
			constCur++
		case gpu.Texture1D, gpu.Texture2D:
			lo, hi := texSim.dramOff[texCur], texSim.dramOff[texCur+1]
			dlines = texSim.dramLines[lo:hi]
			texCur++
		}

		replays := int64(c.staticReplays[r.ordinal]) + cm
		proxyNS += float64(1+replays) * slotNS

		for _, line := range dlines {
			an.Add(line, proxyNS)
		}
	}
	for ; gi < len(p.slotSeq); gi++ {
		proxyNS += float64(p.slotSeq[gi]) * slotNS
	}
	return p.finishAnalysis(a, an, pl, proxyNS)
}

// contribKey identifies a reusable contribution: the array, its space, and
// its address key (see addrKeyOf). The address is part of the key because
// layout retargeting can move an array's neighbors: a placement that pushes
// other arrays across the on-chip/off-chip boundary shifts this array's heap
// range, and an off-chip contribution is only valid for the addresses it was
// resolved at. A shared array's key is only its bank phase, so every shared
// offset that differs by whole bank words reuses one contribution.
type contribKey struct {
	array trace.ArrayID
	space gpu.MemSpace
	addr  uint64
}

// contribEntry is one cache slot; once makes concurrent builders of the same
// key collapse to a single build.
type contribEntry struct {
	once sync.Once
	c    *contribution
}

// contribCache shares built contributions across every clone of a Predictor.
// Values are immutable after construction and a pure function of their key,
// so concurrent lookups from parallel ranking workers are deterministic: any
// worker that builds a key builds the same value. The resolver hierarchy is
// shared by all builds: ResolveScratch reads only its geometry, never its
// cache state.
type contribCache struct {
	prog     *program
	resolver *memsys.Hierarchy
	mu       sync.Mutex
	m        map[contribKey]*contribEntry

	// groups memoizes per-SM cache space group sims across the same clones
	// (see groupCache); searches revisit the same few space groups for every
	// placement they evaluate.
	groups groupCache
}

func newContribCache(prog *program) *contribCache {
	return &contribCache{
		prog:     prog,
		resolver: memsys.NewHierarchy(prog.cfg),
		m:        make(map[contribKey]*contribEntry),
		groups:   groupCache{m: make(map[string]*groupEntry)},
	}
}

// groupEntry is one group-sim cache slot; once collapses concurrent builders
// of the same group to a single build.
type groupEntry struct {
	once sync.Once
	g    *groupSim
}

// groupCache memoizes groupSims by the exact inputs they are a pure function
// of: the cache flavor and the ordered (array, space, addr) bindings of the
// member contributions. A kernel's searches bind each space to a handful of
// array groups, so entries are few and hit rates near one. Safe for
// concurrent use; values are immutable after construction.
type groupCache struct {
	mu sync.Mutex
	m  map[string]*groupEntry
}

// groupKeyOf encodes the group identity. Member order is the array index
// order, which is deterministic, so equal groups encode equally.
func groupKeyOf(isConst bool, member []bool, contribs []*contribution) string {
	buf := make([]byte, 0, 1+len(member)*11)
	if isConst {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	for i, in := range member {
		if !in {
			continue
		}
		c := contribs[i]
		buf = append(buf, byte(i), byte(i>>8), byte(c.space))
		a := c.addr
		buf = append(buf, byte(a), byte(a>>8), byte(a>>16), byte(a>>24),
			byte(a>>32), byte(a>>40), byte(a>>48), byte(a>>56))
	}
	return string(buf)
}

func (gc *groupCache) get(p *program, isConst bool, member []bool, contribs []*contribution) *groupSim {
	key := groupKeyOf(isConst, member, contribs)
	gc.mu.Lock()
	e, ok := gc.m[key]
	if !ok {
		e = &groupEntry{}
		gc.m[key] = e
	}
	gc.mu.Unlock()
	e.once.Do(func() { e.g = p.buildGroupSim(isConst, member, contribs) })
	return e.g
}

// get returns the contribution for key, building it on first use. hit reports
// whether the value was already resident (the delta fast path).
func (cc *contribCache) get(array trace.ArrayID, space gpu.MemSpace, addr uint64) (c *contribution, hit bool) {
	key := contribKey{array: array, space: space, addr: addr}
	cc.mu.Lock()
	e, ok := cc.m[key]
	if !ok {
		e = &contribEntry{}
		cc.m[key] = e
	}
	cc.mu.Unlock()
	e.once.Do(func() { e.c = cc.prog.buildContribution(cc.resolver, array, space, addr) })
	return e.c, ok
}

// DeltaState is a reusable snapshot of one evaluated placement: the placement
// itself, its resolved layout, and the per-array contributions that produced
// its Analysis. PredictDelta starts from it to re-resolve only what a single
// move actually changes. States are immutable and safe to share across
// goroutines; holding one alive only pins contributions that the predictor's
// cache retains anyway.
type DeltaState struct {
	place    *placement.Placement
	layout   *placement.Layout
	contribs []*contribution
}

// Placement returns the placement this state describes. Callers must not
// mutate it.
func (s *DeltaState) Placement() *placement.Placement { return s.place }

// addrKeyOf returns the address-binding component of an array's contribution
// key under a layout: the device base address for off-chip spaces, and for
// shared memory the block-local offset modulo the bank word width. Moving
// every lane of a shared access by whole bank words moves each word to the
// bank a fixed distance away — a permutation of the banks — so the distinct
// words per bank, and with them bank conflicts, replays and events, are the
// same at every offset with the same remainder. Shared accesses reach no
// cache, so nothing else in a contribution depends on the offset. The
// contribution is built at the key itself, the smallest such offset.
func addrKeyOf(l *placement.Layout, sp gpu.MemSpace, i int, bankBytes uint64) uint64 {
	if sp == gpu.Shared {
		return l.SharedOff[i] % bankBytes
	}
	return l.Base[i]
}
