package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"

	"gpuhms/internal/advisor"
	"gpuhms/internal/trace"
)

// goldenRow is one kept placement of an advise job: its formatted placement
// and the model's predicted time. encoding/json writes float64 in the
// shortest form that reads back to the same bits, so the file pins the
// predictions bit for bit.
type goldenRow struct {
	Placement   string  `json:"placement"`
	PredictedNS float64 `json:"predicted_ns"`
}

// goldens maps an advise job's key to its expected top-K.
type goldens map[string][]goldenRow

func loadGoldens(path string) (goldens, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading goldens: %w", err)
	}
	var g goldens
	if err := json.Unmarshal(b, &g); err != nil {
		return nil, fmt.Errorf("parsing goldens %s: %w", path, err)
	}
	return g, nil
}

// rowsOf renders a ranking as golden rows.
func rowsOf(t *trace.Trace, ranked []advisor.Ranked) []goldenRow {
	rows := make([]goldenRow, len(ranked))
	for i, r := range ranked {
		rows[i] = goldenRow{Placement: r.Placement.Format(t), PredictedNS: r.PredictedNS}
	}
	return rows
}

// check compares a job's ranking with its golden and describes the first
// difference; "" means the ranking matches exactly.
func (g goldens) check(key string, got []goldenRow) string {
	want, ok := g[key]
	if !ok {
		return fmt.Sprintf("%s: no golden ranking", key)
	}
	if len(got) != len(want) {
		return fmt.Sprintf("%s: %d ranked placements, golden has %d", key, len(got), len(want))
	}
	for i := range want {
		if got[i].Placement != want[i].Placement ||
			math.Float64bits(got[i].PredictedNS) != math.Float64bits(want[i].PredictedNS) {
			return fmt.Sprintf("%s: rank %d is %s at %v ns, golden %s at %v ns",
				key, i+1, got[i].Placement, got[i].PredictedNS, want[i].Placement, want[i].PredictedNS)
		}
	}
	return ""
}

// writeGoldens merges rankings into the goldens file, keeping the entries
// of jobs this run did not execute. encoding/json writes map keys sorted,
// so the file is deterministic.
func writeGoldens(path string, update goldens) error {
	g, err := loadGoldens(path)
	if err != nil {
		g = goldens{}
	}
	for k, v := range update {
		g[k] = v
	}
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
