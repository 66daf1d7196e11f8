package memsys

import (
	"math/rand"
	"reflect"
	"testing"

	"gpuhms/internal/gpu"
	"gpuhms/internal/placement"
	"gpuhms/internal/replay"
	"gpuhms/internal/trace"
)

// buildKernel returns a trace with one array and a single configurable
// memory instruction per pattern.
func buildKernel(t *testing.T, arr trace.Array, emit func(*trace.WarpBuilder, trace.ArrayID)) *trace.Trace {
	t.Helper()
	b := trace.NewBuilder("k", trace.Launch{Blocks: 4, ThreadsPerBlock: 32, WarpSize: 32})
	id := b.DeclareArray(arr)
	emit(b.Warp(0, 0), id)
	return b.MustBuild()
}

func bind(cfg *gpu.Config, tr *trace.Trace, spec string) (*Binding, error) {
	sample := placement.New(len(tr.Arrays))
	target, err := placement.Parse(tr, spec)
	if err != nil {
		return nil, err
	}
	layout := placement.NewLayout(tr, sample)
	return NewBinding(cfg, tr, sample, layout, target), nil
}

func TestGlobalCoalescedAccess(t *testing.T) {
	cfg := gpu.KeplerK80()
	tr := buildKernel(t, trace.Array{Name: "a", Type: trace.F32, Len: 4096, ReadOnly: true},
		func(w *trace.WarpBuilder, id trace.ArrayID) { w.LoadCoalesced(id, 0, 32) })
	b, err := bind(cfg, tr, "")
	if err != nil {
		t.Fatal(err)
	}
	h := NewHierarchy(cfg)
	sm := NewSMCaches(cfg)
	res := h.Access(sm, b, &tr.Warps[0].Inst[0], nil)

	if res.Space != gpu.Global || res.Store {
		t.Errorf("space/store: %v %v", res.Space, res.Store)
	}
	if res.Transactions != 1 {
		t.Errorf("coalesced 32×4B should be 1 transaction, got %d", res.Transactions)
	}
	if res.Replays.Total() != 0 {
		t.Errorf("replays = %d", res.Replays.Total())
	}
	if res.L2Accesses != 1 || res.L2Misses != 1 {
		t.Errorf("L2: %d/%d", res.L2Accesses, res.L2Misses)
	}
	if len(res.DRAMLines) != 1 {
		t.Errorf("DRAM lines = %d", len(res.DRAMLines))
	}
}

func TestGlobalDivergentAccess(t *testing.T) {
	cfg := gpu.KeplerK80()
	tr := buildKernel(t, trace.Array{Name: "a", Type: trace.F32, Len: 1 << 16, ReadOnly: true},
		func(w *trace.WarpBuilder, id trace.ArrayID) {
			w.LoadStrided(id, 0, 32, 32) // lanes 128B apart → 32 lines
		})
	b, _ := bind(cfg, tr, "")
	h := NewHierarchy(cfg)
	sm := NewSMCaches(cfg)
	res := h.Access(sm, b, &tr.Warps[0].Inst[0], nil)
	if res.Transactions != 32 {
		t.Errorf("transactions = %d", res.Transactions)
	}
	if got := res.Replays.ByReason[replay.GlobalDivergence]; got != 31 {
		t.Errorf("divergence replays = %d", got)
	}
}

func TestConstantBroadcastVsDivergent(t *testing.T) {
	cfg := gpu.KeplerK80()
	tr := buildKernel(t, trace.Array{Name: "c", Type: trace.F32, Len: 1024, ReadOnly: true},
		func(w *trace.WarpBuilder, id trace.ArrayID) {
			w.LoadBroadcast(id, 5, 32)
			w.LoadStrided(id, 0, 1, 32) // 32 distinct words
		})
	b, _ := bind(cfg, tr, "c:C")
	h := NewHierarchy(cfg)
	sm := NewSMCaches(cfg)

	bc := h.Access(sm, b, &tr.Warps[0].Inst[0], nil)
	if bc.Replays.ByReason[replay.ConstantDivergence] != 0 {
		t.Errorf("broadcast divergence replays = %d", bc.Replays.ByReason[replay.ConstantDivergence])
	}
	if bc.ConstAccesses == 0 || bc.ConstMiss == 0 {
		t.Errorf("cold constant access: %d/%d", bc.ConstAccesses, bc.ConstMiss)
	}
	if bc.Replays.ByReason[replay.ConstantMiss] != int64(bc.ConstMiss) {
		t.Error("each constant-cache miss is one replay (cause 2)")
	}

	dv := h.Access(sm, b, &tr.Warps[0].Inst[1], nil)
	if got := dv.Replays.ByReason[replay.ConstantDivergence]; got != 31 {
		t.Errorf("divergent constant replays = %d", got)
	}
}

func TestSharedConflicts(t *testing.T) {
	cfg := gpu.KeplerK80()
	tr := buildKernel(t, trace.Array{Name: "s", Type: trace.F32, Len: 4096},
		func(w *trace.WarpBuilder, id trace.ArrayID) {
			w.LoadStrided(id, 0, 32, 32) // stride 32 words → 32-way conflict
		})
	b, _ := bind(cfg, tr, "s:S")
	h := NewHierarchy(cfg)
	sm := NewSMCaches(cfg)
	res := h.Access(sm, b, &tr.Warps[0].Inst[0], nil)
	if res.Space != gpu.Shared {
		t.Fatalf("space = %v", res.Space)
	}
	// 4096 floats over 4 blocks = 1024-element tile; lanes at stride 32
	// within the tile hit the same bank.
	if res.SharedConflicts != 31 {
		t.Errorf("shared conflicts = %d", res.SharedConflicts)
	}
	if len(res.DRAMLines) != 0 || res.L2Accesses != 0 {
		t.Error("shared accesses must not reach L2/DRAM")
	}
}

func TestTextureCachePath(t *testing.T) {
	cfg := gpu.KeplerK80()
	tr := buildKernel(t, trace.Array{Name: "x", Type: trace.F32, Len: 4096, ReadOnly: true},
		func(w *trace.WarpBuilder, id trace.ArrayID) {
			w.LoadCoalesced(id, 0, 32)
			w.LoadCoalesced(id, 0, 32) // repeat: tex hit, no L2 traffic
		})
	b, _ := bind(cfg, tr, "x:T")
	h := NewHierarchy(cfg)
	sm := NewSMCaches(cfg)
	first := h.Access(sm, b, &tr.Warps[0].Inst[0], nil)
	if first.TexAccesses != 1 || first.TexMiss != 1 || first.L2Accesses != 1 {
		t.Errorf("cold texture: %+v", first)
	}
	second := h.Access(sm, b, &tr.Warps[0].Inst[1], nil)
	if second.TexMiss != 0 || second.L2Accesses != 0 || len(second.DRAMLines) != 0 {
		t.Errorf("warm texture should stay in the tex cache: %+v", second)
	}
}

func TestTexture2DSwizzleChangesLines(t *testing.T) {
	cfg := gpu.KeplerK80()
	// A column access (stride = width): 1D placement touches 32 lines; the
	// 2D tiled layout packs 16-row tiles → fewer lines.
	const width = 64
	tr := buildKernel(t, trace.Array{Name: "m", Type: trace.F32, Len: width * 64, Width: width, ReadOnly: true},
		func(w *trace.WarpBuilder, id trace.ArrayID) {
			w.LoadStrided(id, 0, width, 32)
			w.LoadStrided(id, 0, width, 32)
		})
	h := NewHierarchy(cfg)
	sm := NewSMCaches(cfg)

	b1, _ := bind(cfg, tr, "m:T")
	lin := h.Access(sm, b1, &tr.Warps[0].Inst[0], nil)
	b2, _ := bind(cfg, tr, "m:2T")
	sw := h.Access(sm, b2, &tr.Warps[0].Inst[1], nil)
	if sw.Transactions >= lin.Transactions {
		t.Errorf("2D swizzle should reduce column-access lines: %d vs %d",
			sw.Transactions, lin.Transactions)
	}
}

func TestL2SharedAcrossSpaces(t *testing.T) {
	cfg := gpu.KeplerK80()
	// The same DRAM lines fetched via global then via texture: the second
	// fetch hits in L2 (texture, constant, and global share the L2).
	b := trace.NewBuilder("k", trace.Launch{Blocks: 1, ThreadsPerBlock: 32, WarpSize: 32})
	g := b.DeclareArray(trace.Array{Name: "g", Type: trace.F32, Len: 1024, ReadOnly: true})
	wb := b.Warp(0, 0)
	wb.LoadCoalesced(g, 0, 32)
	wb.LoadCoalesced(g, 0, 32)
	tr := b.MustBuild()

	// First access in global placement fills L2.
	sample := placement.New(1)
	layout := placement.NewLayout(tr, sample)
	h := NewHierarchy(cfg)
	sm := NewSMCaches(cfg)
	bG := NewBinding(cfg, tr, sample, layout, sample)
	h.Access(sm, bG, &tr.Warps[0].Inst[0], nil)

	// Second access via texture (same addresses: off-chip → off-chip keeps
	// the address, §III-E): tex misses but L2 hits → no DRAM.
	target, _ := placement.Parse(tr, "g:T")
	bT := NewBinding(cfg, tr, sample, layout, target)
	res := h.Access(sm, bT, &tr.Warps[0].Inst[1], nil)
	if res.TexMiss != 1 {
		t.Errorf("tex miss = %d", res.TexMiss)
	}
	if res.L2Misses != 0 || len(res.DRAMLines) != 0 {
		t.Errorf("texture fill should hit shared L2: %+v", res)
	}
}

func TestInactiveLanesProduceNoAddresses(t *testing.T) {
	cfg := gpu.KeplerK80()
	tr := buildKernel(t, trace.Array{Name: "a", Type: trace.F32, Len: 64, ReadOnly: true},
		func(w *trace.WarpBuilder, id trace.ArrayID) {
			idx := make([]int64, 32)
			for i := range idx {
				idx[i] = trace.Inactive
			}
			w.Load(id, idx)
		})
	b, _ := bind(cfg, tr, "")
	h := NewHierarchy(cfg)
	sm := NewSMCaches(cfg)
	res := h.Access(sm, b, &tr.Warps[0].Inst[0], nil)
	if res.Transactions != 1 || res.L2Accesses != 0 {
		t.Errorf("fully-masked access: %+v", res)
	}
}

func TestHierarchyReset(t *testing.T) {
	cfg := gpu.KeplerK80()
	h := NewHierarchy(cfg)
	tr := buildKernel(t, trace.Array{Name: "a", Type: trace.F32, Len: 64, ReadOnly: true},
		func(w *trace.WarpBuilder, id trace.ArrayID) { w.LoadCoalesced(id, 0, 32) })
	b, _ := bind(cfg, tr, "")
	sm := NewSMCaches(cfg)
	h.Access(sm, b, &tr.Warps[0].Inst[0], nil)
	if h.L2.Misses() != 1 {
		t.Fatalf("L2 misses = %d", h.L2.Misses())
	}
	h.Reset()
	if h.L2.Misses() != 0 || h.L2.Accesses() != 0 {
		t.Error("reset must clear the L2")
	}
}

// TestResolveScratchAllocsNothing pins the per-instruction resolver's
// contract: once a Scratch's buffers have grown, resolving accesses in every
// space — coalesced and divergent global, atomics, bank-conflicting shared,
// constant and 2D texture — allocates nothing.
func TestResolveScratchAllocsNothing(t *testing.T) {
	cfg := gpu.KeplerK80()
	b := trace.NewBuilder("k", trace.Launch{Blocks: 4, ThreadsPerBlock: 32, WarpSize: 32})
	g := b.DeclareArray(trace.Array{Name: "g", Type: trace.F32, Len: 4096})
	s := b.DeclareArray(trace.Array{Name: "s", Type: trace.F32, Len: 4096})
	c := b.DeclareArray(trace.Array{Name: "c", Type: trace.F32, Len: 1024, ReadOnly: true})
	tx := b.DeclareArray(trace.Array{Name: "tx", Type: trace.F32, Len: 4096, Width: 64, ReadOnly: true})
	bins := make([]int64, 32)
	for i := range bins {
		bins[i] = int64(i % 3)
	}
	b.Warp(0, 0).
		LoadCoalesced(g, 0, 32).
		LoadStrided(g, 0, 33, 32).
		Atomic(g, bins).
		StoreStrided(s, 0, 8, 32).
		LoadStrided(c, 0, 2, 32).
		LoadStrided(tx, 0, 64, 32)
	tr := b.MustBuild()
	bd, err := bind(cfg, tr, "s:S,c:C,tx:2T")
	if err != nil {
		t.Fatal(err)
	}
	h := NewHierarchy(cfg)
	var sc Scratch
	insts := tr.Warps[0].Inst
	resolveAll := func() {
		for i := range insts {
			h.ResolveScratch(bd, &insts[i], &sc)
		}
	}
	resolveAll()
	if n := testing.AllocsPerRun(100, resolveAll); n != 0 {
		t.Errorf("ResolveScratch allocates %v times per pass on a warmed Scratch, want 0", n)
	}
}

// TestAddressesMatchLayout checks the per-instruction lane loops of
// Binding.Addresses against the per-element layout rules they hoist:
// Layout.Address for global memory and Layout.SharedAddress, tile wrap
// included, for shared memory, with inactive lanes skipped.
func TestAddressesMatchLayout(t *testing.T) {
	cfg := gpu.KeplerK80()
	b := trace.NewBuilder("k", trace.Launch{Blocks: 4, ThreadsPerBlock: 32, WarpSize: 32})
	g := b.DeclareArray(trace.Array{Name: "g", Type: trace.F64, Len: 4096})
	s := b.DeclareArray(trace.Array{Name: "s", Type: trace.F32, Len: 4096})
	r := rand.New(rand.NewSource(1))
	w := b.Warp(0, 0)
	idx := make([]int64, 32)
	for k := 0; k < 16; k++ {
		for l := range idx {
			idx[l] = r.Int63n(4096)
			if r.Intn(4) == 0 {
				idx[l] = trace.Inactive
			}
		}
		w.Load(g, idx).Store(s, idx)
	}
	tr := b.MustBuild()
	bd, err := bind(cfg, tr, "s:S")
	if err != nil {
		t.Fatal(err)
	}
	for i := range tr.Warps[0].Inst {
		in := &tr.Warps[0].Inst[i]
		var want []uint64
		for _, ix := range in.Index {
			switch {
			case ix == trace.Inactive:
			case in.Array == s:
				want = append(want, bd.Layout.SharedAddress(tr, s, ix))
			default:
				want = append(want, bd.Layout.Address(tr, g, ix))
			}
		}
		if got := bd.Addresses(in, nil); !reflect.DeepEqual(got, want) {
			t.Fatalf("inst %d (%s): addresses %v, want %v", i, tr.Arrays[in.Array].Name, got, want)
		}
	}
}
