package sharedmem

import (
	"math/rand"
	"testing"
	"testing/quick"

	"gpuhms/internal/gpu"
)

func kepler() Config { return FromGPU(gpu.KeplerK80()) }

func addrs(stride, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = uint64(i * stride)
	}
	return out
}

func TestConflictFreeUnitStride(t *testing.T) {
	c := kepler()
	// 32 lanes × consecutive 4-byte words → one word per bank.
	if d := c.ConflictDegree(addrs(4, 32), nil); d != 1 {
		t.Errorf("unit stride degree = %d", d)
	}
	if r := c.Conflicts(addrs(4, 32), nil); r != 0 {
		t.Errorf("unit stride replays = %d", r)
	}
}

func TestBroadcastIsConflictFree(t *testing.T) {
	c := kepler()
	same := make([]uint64, 32)
	for i := range same {
		same[i] = 128
	}
	if d := c.ConflictDegree(same, nil); d != 1 {
		t.Errorf("broadcast degree = %d", d)
	}
}

func TestPowerOfTwoStrides(t *testing.T) {
	c := kepler()
	// Classic result: stride s (in words) on 32 banks gives
	// gcd(s,32)-way conflicts.
	for _, tc := range []struct {
		strideWords int
		degree      int
	}{
		{1, 1}, {2, 2}, {4, 4}, {8, 8}, {16, 16}, {32, 32}, {3, 1}, {5, 1}, {33, 1},
	} {
		got := c.ConflictDegree(addrs(tc.strideWords*4, 32), nil)
		if got != tc.degree {
			t.Errorf("stride %d words: degree = %d, want %d", tc.strideWords, got, tc.degree)
		}
	}
}

func TestPaddingRemovesConflicts(t *testing.T) {
	c := kepler()
	// The classic padding trick: stride 32 words conflicts 32-way; stride
	// 33 words is conflict-free.
	if d := c.ConflictDegree(addrs(32*4, 32), nil); d != 32 {
		t.Errorf("unpadded degree = %d", d)
	}
	if d := c.ConflictDegree(addrs(33*4, 32), nil); d != 1 {
		t.Errorf("padded degree = %d", d)
	}
}

func TestInactiveLanesIgnored(t *testing.T) {
	c := kepler()
	a := addrs(32*4, 32) // all lanes same bank
	active := make([]bool, 32)
	active[0], active[7] = true, true
	if d := c.ConflictDegree(a, active); d != 2 {
		t.Errorf("two active lanes degree = %d", d)
	}
	none := make([]bool, 32)
	if d := c.ConflictDegree(a, none); d != 1 {
		t.Errorf("no active lanes degree = %d (an access still issues once)", d)
	}
}

func TestSameWordDifferentLanesBroadcasts(t *testing.T) {
	c := kepler()
	// Half the warp reads word 0, half reads word 32 (same bank, different
	// words): 2-way conflict, not 32-way.
	a := make([]uint64, 32)
	for i := range a {
		if i%2 == 0 {
			a[i] = 0
		} else {
			a[i] = 32 * 4
		}
	}
	if d := c.ConflictDegree(a, nil); d != 2 {
		t.Errorf("two-word same-bank degree = %d", d)
	}
}

// Property: degree is between 1 and the number of active lanes, and equals
// the true maximum per-bank distinct-word count computed by a reference
// implementation.
func TestConflictDegreeMatchesReference(t *testing.T) {
	c := kepler()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(32)
		a := make([]uint64, n)
		for i := range a {
			a[i] = uint64(r.Intn(2048)) * 4
		}
		got := c.ConflictDegree(a, nil)

		// Reference: map bank → set of words.
		banks := make(map[int]map[uint64]bool)
		for _, addr := range a {
			word := addr / uint64(c.BankBytes)
			bank := int(word % uint64(c.Banks))
			if banks[bank] == nil {
				banks[bank] = make(map[uint64]bool)
			}
			banks[bank][word] = true
		}
		want := 1
		for _, words := range banks {
			if len(words) > want {
				want = len(words)
			}
		}
		return got == want && got >= 1 && got <= n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestManyDistinctWordsPerBankOverflowPath(t *testing.T) {
	c := Config{Banks: 2, BankBytes: 4}
	// 8 distinct words all in bank 0 exercises the small-array overflow
	// into the map.
	a := make([]uint64, 8)
	for i := range a {
		a[i] = uint64(i) * 2 * 4 // even words → bank 0
	}
	if d := c.ConflictDegree(a, nil); d != 8 {
		t.Errorf("degree = %d, want 8", d)
	}
	// Duplicates in the overflow region must still broadcast.
	a = append(a, a[5], a[6])
	if d := c.ConflictDegree(a, nil); d != 8 {
		t.Errorf("degree with dups = %d, want 8", d)
	}
}

// referenceConflictDegree is the original per-bank table model: a small
// array of distinct words per bank, overflowing into a map. ConflictDegree
// must agree with it on every access.
func referenceConflictDegree(c Config, addrs []uint64, active []bool) int {
	type bankWords struct {
		words [4]uint64
		n     int
		over  map[uint64]struct{}
	}
	banks := make([]bankWords, c.Banks)
	degree := 0
	for i, a := range addrs {
		if active != nil && !active[i] {
			continue
		}
		word := a / uint64(c.BankBytes)
		bank := int(word % uint64(c.Banks))
		bw := &banks[bank]
		dup := false
		for j := 0; j < bw.n && j < len(bw.words); j++ {
			if bw.words[j] == word {
				dup = true
				break
			}
		}
		if !dup && bw.over != nil {
			_, dup = bw.over[word]
		}
		if dup {
			continue
		}
		if bw.n < len(bw.words) {
			bw.words[bw.n] = word
		} else {
			if bw.over == nil {
				bw.over = make(map[uint64]struct{})
			}
			bw.over[word] = struct{}{}
		}
		bw.n++
		if bw.n > degree {
			degree = bw.n
		}
	}
	if degree == 0 {
		return 1
	}
	return degree
}

// TestConflictDegreeDifferential checks ConflictDegree against the table
// reference over random bank counts, bank widths, lane counts up to 64,
// active masks (nil included), and address ranges narrow enough to force
// both broadcasts and many-word conflicts.
func TestConflictDegreeDifferential(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := Config{Banks: 1 + r.Intn(64), BankBytes: []int{1, 2, 4, 8, 16}[r.Intn(5)]}
		n := r.Intn(65)
		span := 1 + r.Intn(1<<uint(1+r.Intn(16)))
		a := make([]uint64, n)
		for i := range a {
			a[i] = uint64(r.Intn(span))
		}
		var active []bool
		if r.Intn(3) > 0 {
			active = make([]bool, n)
			for i := range active {
				active[i] = r.Intn(4) > 0
			}
		}
		got, want := c.ConflictDegree(a, active), referenceConflictDegree(c, a, active)
		if got != want {
			t.Logf("cfg %+v addrs %v active %v: got %d, want %d", c, a, active, got, want)
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestConflictDegreeWideWarp covers warps wider than the stack buffer.
func TestConflictDegreeWideWarp(t *testing.T) {
	c := kepler()
	a := addrs(4, 1024) // 1024 unit-stride lanes: 32 distinct words per bank
	if got, want := c.ConflictDegree(a, nil), referenceConflictDegree(c, a, nil); got != want || got != 32 {
		t.Errorf("1024-lane degree = %d, reference %d, want 32", got, want)
	}
}

// TestConflictDegreeAllocsNothing pins the allocation-free contract for
// warp-sized accesses.
func TestConflictDegreeAllocsNothing(t *testing.T) {
	c := kepler()
	a := addrs(2*4, 32)
	active := make([]bool, 32)
	for i := range active {
		active[i] = i%3 != 0
	}
	if n := testing.AllocsPerRun(100, func() {
		c.ConflictDegree(a, nil)
		c.ConflictDegree(a, active)
	}); n != 0 {
		t.Errorf("ConflictDegree allocates %v times per call pair, want 0", n)
	}
}
