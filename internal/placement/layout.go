package placement

import (
	"gpuhms/internal/gpu"
	"gpuhms/internal/trace"
)

// HeapBase is the first virtual address handed out for off-chip arrays,
// mimicking a cudaMalloc-style device heap.
const HeapBase uint64 = 0x7_0000_0000

// AllocAlign is the allocation alignment of the device heap (cudaMalloc
// guarantees at least 256-byte alignment).
const AllocAlign uint64 = 256

// Layout binds a placement to concrete addresses: a 64-bit device address
// for every off-chip array and a block-local byte offset for every
// shared-memory array. It implements §III-E of the paper:
//
//   - arrays moved between off-chip memories keep their sample address;
//   - arrays moved between shared and off-chip memory receive a fresh range
//     after the largest allocated address of the destination, respecting
//     alignment and object size.
type Layout struct {
	// Base[id] is the device address of off-chip arrays; unset (0) for
	// shared-memory arrays.
	Base []uint64
	// SharedOff[id] is the block-local shared-memory byte offset for
	// shared arrays.
	SharedOff []uint64
	// HeapEnd is one past the highest allocated off-chip byte.
	HeapEnd uint64
	// SharedEnd is one past the highest allocated shared byte per block.
	SharedEnd uint64
}

func alignUp(x, a uint64) uint64 { return (x + a - 1) / a * a }

// NewLayout allocates addresses for a placement from scratch, assigning
// off-chip arrays sequentially from HeapBase in array-ID order and shared
// arrays sequentially from offset 0. It is used for the sample placement.
func NewLayout(t *trace.Trace, p *Placement) *Layout {
	l := &Layout{
		Base:      make([]uint64, len(t.Arrays)),
		SharedOff: make([]uint64, len(t.Arrays)),
		HeapEnd:   HeapBase,
	}
	for i, a := range t.Arrays {
		if p.Spaces[i] == gpu.Shared {
			l.SharedOff[i] = alignUp(l.SharedEnd, uint64(a.Type.Bytes()))
			l.SharedEnd = l.SharedOff[i] + uint64(SharedFootprint(t, trace.ArrayID(i)))
			continue
		}
		l.Base[i] = alignUp(l.HeapEnd, AllocAlign)
		l.HeapEnd = l.Base[i] + uint64(a.Bytes())
	}
	return l
}

// Retarget derives the target placement's layout from the sample layout per
// the rules above.
func Retarget(t *trace.Trace, sample *Layout, samplePl, targetPl *Placement) *Layout {
	l := &Layout{
		Base:      make([]uint64, len(t.Arrays)),
		SharedOff: make([]uint64, len(t.Arrays)),
		HeapEnd:   sample.HeapEnd,
		SharedEnd: 0,
	}
	// First pass: arrays that stay in (any) off-chip memory keep their
	// address; arrays staying shared keep their offsets recomputed in order.
	for i, a := range t.Arrays {
		sSp, tSp := samplePl.Spaces[i], targetPl.Spaces[i]
		switch {
		case tSp == gpu.Shared && sSp == gpu.Shared:
			l.SharedOff[i] = alignUp(l.SharedEnd, uint64(a.Type.Bytes()))
			l.SharedEnd = l.SharedOff[i] + uint64(SharedFootprint(t, trace.ArrayID(i)))
		case tSp != gpu.Shared && sSp != gpu.Shared:
			l.Base[i] = sample.Base[i]
		}
	}
	// Second pass: arrays that crossed the on-chip/off-chip boundary get
	// fresh ranges after the largest allocated address of the destination.
	for i, a := range t.Arrays {
		sSp, tSp := samplePl.Spaces[i], targetPl.Spaces[i]
		switch {
		case tSp == gpu.Shared && sSp != gpu.Shared:
			l.SharedOff[i] = alignUp(l.SharedEnd, uint64(a.Type.Bytes()))
			l.SharedEnd = l.SharedOff[i] + uint64(SharedFootprint(t, trace.ArrayID(i)))
		case tSp != gpu.Shared && sSp == gpu.Shared:
			l.Base[i] = alignUp(l.HeapEnd, AllocAlign)
			l.HeapEnd = l.Base[i] + uint64(a.Bytes())
		}
	}
	return l
}

// Address resolves one element index of an array to a device address (for
// off-chip arrays) under this layout.
func (l *Layout) Address(t *trace.Trace, id trace.ArrayID, index int64) uint64 {
	return l.Base[id] + uint64(index)*uint64(t.Arrays[id].Type.Bytes())
}

// SharedAddress resolves an element index of a shared array to a block-local
// shared-memory byte address. Indices are wrapped into the per-block tile
// (the paper's conservative block-local index rewriting for arrays larger
// than a block's share).
func (l *Layout) SharedAddress(t *trace.Trace, id trace.ArrayID, index int64) uint64 {
	return l.SharedOff[id] + uint64(index)%SharedTileElems(t, id)*uint64(t.Arrays[id].Type.Bytes())
}

// SharedTileElems returns the element count of a shared array's per-block
// tile (its SharedFootprint in elements, at least one): SharedAddress wraps
// element indices modulo it.
func SharedTileElems(t *trace.Trace, id trace.ArrayID) uint64 {
	return max(uint64(SharedFootprint(t, id))/uint64(t.Arrays[id].Type.Bytes()), 1)
}
