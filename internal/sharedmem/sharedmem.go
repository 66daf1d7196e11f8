// Package sharedmem models the on-chip shared memory: a banked scratchpad
// where a warp access serializes when multiple lanes touch different words
// in the same bank (a bank conflict). Bank conflicts are instruction-replay
// reason (4) of §III-B and feed both the replay quantification and the
// T_overlap event model.
package sharedmem

import (
	"slices"

	"gpuhms/internal/gpu"
)

// Config describes the shared memory organization.
type Config struct {
	Banks     int // number of banks (32 on Kepler)
	BankBytes int // word width per bank per cycle (4 bytes on Kepler)
}

// FromGPU extracts the shared-memory configuration.
func FromGPU(c *gpu.Config) Config {
	return Config{Banks: c.SharedBanks, BankBytes: c.SharedBankBytes}
}

// StackLanes is the widest warp whose per-lane words the conflict models
// sort in a stack buffer; wider warps (traces allow up to 1024 lanes) grow
// into a heap buffer.
const StackLanes = 64

// ConflictDegree returns the serialization degree of one warp access: the
// maximum, over banks, of the number of *distinct* words the warp's active
// lanes address in that bank. Lanes reading the same word broadcast and do
// not conflict. A conflict-free access has degree 1; an access with degree d
// replays d−1 times.
//
// addrs holds block-local shared-memory byte addresses; active[i] reports
// whether lane i participates. active may be nil (all lanes active).
//
// The active words are sorted and deduplicated, mapped to their banks, and
// sorted again; the degree is the longest run of one bank. Nothing is
// allocated for warps of up to StackLanes lanes.
func (c Config) ConflictDegree(addrs []uint64, active []bool) int {
	var stack [StackLanes]uint64
	words := stack[:0]
	bankBytes := uint64(c.BankBytes)
	for i, a := range addrs {
		if active == nil || active[i] {
			words = append(words, a/bankBytes)
		}
	}
	if len(words) == 0 {
		return 1 // an access with no active lanes still issues once
	}
	slices.Sort(words)
	words = slices.Compact(words)
	banks := uint64(c.Banks)
	for i, w := range words {
		words[i] = w % banks
	}
	slices.Sort(words)
	return LongestRun(words)
}

// Conflicts returns the number of bank-conflict replays of one warp access:
// ConflictDegree − 1.
func (c Config) Conflicts(addrs []uint64, active []bool) int {
	return c.ConflictDegree(addrs, active) - 1
}

// LongestRun returns the length of the longest run of equal values in a
// sorted slice (0 for an empty one).
func LongestRun(sorted []uint64) int {
	best, run := 0, 0
	for i, v := range sorted {
		if i > 0 && v == sorted[i-1] {
			run++
		} else {
			run = 1
		}
		best = max(best, run)
	}
	return best
}
