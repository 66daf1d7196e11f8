package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"gpuhms/internal/obs"
)

// mayBeZero are the per-layer metrics whose healthy value is 0: nothing
// shed, no reconciliation miss, and no rate sustained in a run too short to
// fill the ladder.
var mayBeZero = map[string]bool{
	"service.shed":             true,
	"bench.reconcile_failures": true,
	"loadgen.max_rps":          true,
}

// exercised reports whether a workload runs the layer a per-layer metric
// times; the others report 0 by design.
func exercised(workload, metric string) bool {
	switch {
	case metric == "advisor.spmv_greedy_search_ms" || metric == "advisor.spmv_exhaustive_search_ms":
		return workload == "advise-s1"
	case strings.HasPrefix(metric, "service.") || strings.HasPrefix(metric, "loadgen."):
		return workload == "serve-mixed"
	}
	return true
}

// TestShortWorkloads runs the short mode of every workload, untraced and
// traced, and checks what each would print: every named metric emitted,
// finite, non-negative and, where the workload exercises it, non-zero; all
// outputs correct.
func TestShortWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload for a few seconds")
	}
	for _, name := range workloadNames() {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", name, traced), func(t *testing.T) {
				opt := options{Seed: 1, Duration: 4 * time.Second, Traced: traced, Short: true,
					GoldenPath: "goldens/advise.json"}
				out, err := workloads[name](context.Background(), opt)
				if err != nil {
					t.Fatal(err)
				}
				res, err := buildResult(out, traced)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d: %v", res.Correct, res.Attempted, res.Failed, out.Problems)
				}
				defs := endToEnd
				if traced {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics emitted, %d named", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.Name]
					switch {
					case !ok:
						t.Errorf("%s: not emitted", d.Name)
					case m.Unit != d.Unit:
						t.Errorf("%s: unit %q, want %q", d.Name, m.Unit, d.Unit)
					case math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Value < 0:
						t.Errorf("%s: %v", d.Name, m.Value)
					case m.Value == 0 && (!traced || exercised(name, d.Name) && !mayBeZero[d.Name]):
						t.Errorf("%s: degenerate 0", d.Name)
					case m.Value != 0 && traced && !exercised(name, d.Name):
						t.Errorf("%s: %v from a layer the workload does not run", d.Name, m.Value)
					}
				}
			})
		}
	}
}

// TestBenchmarkJSONMatches checks that BENCHMARK.json names exactly the
// workloads and metrics this program implements.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metricDef             `json:"end_to_end"`
		PerLayer  []metricDef             `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if fmt.Sprint(names) != fmt.Sprint(workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, workloadNames())
	}
	if fmt.Sprint(spec.EndToEnd) != fmt.Sprint(endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end differs from the program's:\n%v\n%v", spec.EndToEnd, endToEnd)
	}
	if fmt.Sprint(spec.PerLayer) != fmt.Sprint(perLayer) {
		t.Errorf("BENCHMARK.json per_layer differs from the program's:\n%v\n%v", spec.PerLayer, perLayer)
	}
}

// TestStageSelfTimes checks the self-time arithmetic on a hand-built
// request track: a stage loses exactly the stage spans nested in it.
func TestStageSelfTimes(t *testing.T) {
	span := func(name string, ts, dur float64) obs.Event {
		return obs.Event{Track: "req/1", Name: name, Kind: obs.SpanEvent, TsNS: ts, DurNS: dur}
	}
	got := stageSelfTimes([]obs.Event{
		span("rank abc", 0, 100),
		span("decode", 0, 10),
		span("cache", 2, 3),
		span("wait", 20, 70),
		span("queue", 20, 5),
		span("search", 25, 60),
		span("encode", 90, 8),
	})
	want := map[string]float64{"decode": 0.007, "cache": 0.003, "queue": 0.005, "search": 0.06, "encode": 0.008}
	for stage, v := range want {
		if len(got[stage]) != 1 || math.Abs(got[stage][0]-v) > 1e-12 {
			t.Errorf("%s: self time %v, want [%v]", stage, got[stage], v)
		}
	}
	if _, ok := got["wait"]; ok {
		t.Errorf("wait is not a reported stage")
	}
}
