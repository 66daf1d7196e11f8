//go:build !race

package sim

import (
	"context"
	"math"
	"testing"

	"gpuhms/internal/gpu"
	"gpuhms/internal/kernels"
)

// maxProfileAllocs bounds the allocations of one profiling run (the sample
// placement measured on the simulator) once the pooled run scratch has
// grown: the binding's layout and placement, the measurement, and nothing
// that scales with the trace — no per-access or per-warp garbage.
const maxProfileAllocs = 16

// TestProfileRunAllocsBounded runs every bundled kernel's sample at scale 1
// and checks that a warmed profiling run stays within maxProfileAllocs,
// whatever the trace length. The race detector instruments allocations, so
// the file is excluded from -race builds.
func TestProfileRunAllocsBounded(t *testing.T) {
	cfg := gpu.KeplerK80()
	s := New(cfg)
	for _, name := range kernels.Names() {
		spec := kernels.MustGet(name)
		tr := spec.Trace(1)
		sample, err := spec.SamplePlacement(tr)
		if err != nil {
			t.Fatal(err)
		}
		run := func() {
			if _, err := s.RunContext(context.Background(), tr, sample, sample); err != nil {
				t.Fatal(err)
			}
		}
		run() // grow the pooled scratch to this trace
		// A stray background allocation can perturb any one sample; the
		// minimum over a few is the run's allocation floor.
		best := math.MaxFloat64
		for i := 0; i < 3; i++ {
			best = min(best, testing.AllocsPerRun(2, run))
		}
		t.Logf("%s: %d warps, %.0f allocs", name, len(tr.Warps), best)
		if best > maxProfileAllocs {
			t.Errorf("%s: profiling run allocates %.0f times, want ≤ %d", name, best, maxProfileAllocs)
		}
	}
}
