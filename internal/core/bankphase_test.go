package core

import (
	"fmt"
	"reflect"
	"testing"

	"gpuhms/internal/gpu"
	"gpuhms/internal/kernels"
	"gpuhms/internal/placement"
	"gpuhms/internal/trace"
)

// bankPhaseArches returns the architectures the bank-phase key is checked
// on: the bundled k80, hbm and chiplet, which differ in the spaces an array
// may take, and the k80 in Kepler's 8-byte bank mode. The bundled arches
// have 4-byte banks, where every shared offset is a whole number of bank
// words and keys to 0; with 8-byte banks, 4-byte arrays also land half a
// word in, so the key keeps a nonzero phase.
func bankPhaseArches() []bankPhaseArch {
	wide := *gpu.MustLookup("k80")
	wide.SharedBankBytes = 8
	return []bankPhaseArch{
		{"k80", gpu.MustLookup("k80")},
		{"hbm", gpu.MustLookup("hbm")},
		{"chiplet", gpu.MustLookup("chiplet")},
		{"k80-8B-bank", &wide},
	}
}

type bankPhaseArch struct {
	name string
	cfg  *gpu.Config
}

// TestSharedContributionBankPhase pins the invariance behind the shared
// contribution key (addrKeyOf): for every bundled kernel at scale 1, every
// array that may live in shared memory, and every block-local offset some
// legal placement's layout gives it, the contribution built at the true
// offset equals — on every field but addr — the one built at the offset
// modulo the bank word width.
func TestSharedContributionBankPhase(t *testing.T) {
	shifted, phased := 0, 0
	for _, a := range bankPhaseArches() {
		arch, cfg := a.name, a.cfg
		bankBytes := uint64(cfg.SharedBankBytes)
		for _, name := range kernels.Names() {
			spec := kernels.MustGet(name)
			tr := spec.Trace(1)
			sample, err := spec.SamplePlacement(tr)
			if err != nil {
				t.Fatal(err)
			}
			sampleLayout := placement.NewLayout(tr, sample)
			// offsets[i] maps each offset array i takes to its key.
			offsets := make([]map[uint64]uint64, len(tr.Arrays))
			placement.EnumerateSeq(tr, cfg, func(pl *placement.Placement) bool {
				l := placement.Retarget(tr, sampleLayout, sample, pl)
				for i, sp := range pl.Spaces {
					if sp != gpu.Shared {
						continue
					}
					if offsets[i] == nil {
						offsets[i] = make(map[uint64]uint64)
					}
					offsets[i][l.SharedOff[i]] = addrKeyOf(l, sp, i, bankBytes)
				}
				return true
			})
			prog := newProgram(cfg, tr)
			cc := newContribCache(prog)
			for i, offs := range offsets {
				for off, key := range offs {
					if key != off%bankBytes {
						t.Fatalf("%s/%s: array %d offset %d keys to %d", arch, name, i, off, key)
					}
					if key == off {
						continue
					}
					shifted++
					if key != 0 {
						phased++
					}
					at := prog.buildContribution(cc.resolver, trace.ArrayID(i), gpu.Shared, off)
					keyed := prog.buildContribution(cc.resolver, trace.ArrayID(i), gpu.Shared, key)
					keyed.addr = at.addr
					if !reflect.DeepEqual(at, keyed) {
						t.Errorf("%s/%s: %s at offset %d differs from its bank-phase key %d",
							arch, name, tr.Arrays[i].Name, off, key)
					}
				}
			}
		}
	}
	if shifted == 0 || phased == 0 {
		t.Fatalf("%d shifted shared offsets, %d with a nonzero bank phase: the invariance was not exercised", shifted, phased)
	}
	t.Logf("%d shifted shared offsets checked, %d with a nonzero bank phase", shifted, phased)
}

// TestSharedKeyPredictionsMatchRawOffsets checks the bank-phase key end to
// end: for fft and matrixMul, every legal placement predicts identically
// whether shared contributions are keyed by bank phase (the predictor) or
// built at their raw layout offsets (a test-only evaluator that mirrors
// evalState, sample analysis included, with a raw-offset cache).
func TestSharedKeyPredictionsMatchRawOffsets(t *testing.T) {
	for _, a := range bankPhaseArches() {
		arch, cfg := a.name, a.cfg
		for _, name := range []string{"fft", "matrixMul"} {
			t.Run(arch+"/"+name, func(t *testing.T) {
				spec := kernels.MustGet(name)
				tr := spec.Trace(1)
				sample, err := spec.SamplePlacement(tr)
				if err != nil {
					t.Fatal(err)
				}
				m := NewModel(cfg, FullOptions())
				pr, err := NewPredictor(m, tr, sample, profile(t, cfg, tr, sample))
				if err != nil {
					t.Fatal(err)
				}
				raw := newRawKeyEvaluator(pr)
				sampleAn := raw.analyze(sample)
				n, shifted := 0, 0
				placement.EnumerateSeq(tr, cfg, func(pl *placement.Placement) bool {
					l := placement.Retarget(tr, pr.sampleLayout, sample, pl)
					for i, sp := range pl.Spaces {
						if sp == gpu.Shared && l.SharedOff[i] >= uint64(cfg.SharedBankBytes) {
							shifted++
							break
						}
					}
					got, err := pr.Predict(pl)
					if err != nil {
						t.Fatal(err)
					}
					want, err := m.predictFrom(raw.analyze(pl), sampleAn, &pr.profile)
					if err != nil {
						t.Fatal(err)
					}
					mustEqualPrediction(t, name, "bank-phase key "+pl.Format(tr), got, want)
					n++
					return true
				})
				if shifted == 0 {
					t.Fatalf("none of %d legal placements shifts a shared array", n)
				}
			})
		}
	}
}

// rawKeyEvaluator evaluates placements with every contribution keyed by its
// raw layout address — the shared offset itself, not its bank phase.
type rawKeyEvaluator struct {
	p        *Predictor
	contribs map[string]*contribution
}

func newRawKeyEvaluator(p *Predictor) *rawKeyEvaluator {
	return &rawKeyEvaluator{p: p, contribs: make(map[string]*contribution)}
}

func (r *rawKeyEvaluator) analyze(target *placement.Placement) *Analysis {
	p := r.p
	layout := placement.Retarget(p.trace, p.sampleLayout, p.sample, target)
	contribs := make([]*contribution, len(target.Spaces))
	for i, sp := range target.Spaces {
		addr := layout.Base[i]
		if sp == gpu.Shared {
			addr = layout.SharedOff[i]
		}
		key := fmt.Sprint(i, sp, addr)
		if r.contribs[key] == nil {
			r.contribs[key] = p.prog.buildContribution(p.cache.resolver, trace.ArrayID(i), sp, addr)
		}
		contribs[i] = r.contribs[key]
	}
	scr := newMergeScratch(p.model.Cfg, p.model.Mapping, p.model.distMode())
	return p.prog.merge(target, contribs, scr, nil)
}
