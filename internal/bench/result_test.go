package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"dramhit/internal/obs"
)

// TestYCSBSummarySchema pins the machine-readable contract CI validates:
// schema tag, full run matrix, positive throughput, and sane latency
// percentile ordering.
func TestYCSBSummarySchema(t *testing.T) {
	_, sum := RunYCSB(Config{Quick: true, Seed: 1})
	if sum.Schema != YCSBSchema {
		t.Fatalf("schema = %q, want %q", sum.Schema, YCSBSchema)
	}
	if len(sum.Runs) != 4 { // workloads {A,C} × tables {dramhit,folklore}
		t.Fatalf("runs = %d, want 4", len(sum.Runs))
	}
	seen := map[string]bool{}
	for _, r := range sum.Runs {
		seen[r.Name] = true
		if r.Mops <= 0 || r.Seconds <= 0 || r.Ops <= 0 {
			t.Errorf("%s: non-positive measurements: %+v", r.Name, r)
		}
		lat := r.LatencyNS
		if lat == nil {
			t.Fatalf("%s: missing latency", r.Name)
		}
		if lat.Count != uint64(r.Ops) {
			t.Errorf("%s: latency count %d, want %d samples", r.Name, lat.Count, r.Ops)
		}
		if !(lat.P50 <= lat.P90 && lat.P90 <= lat.P99 && lat.P99 <= lat.P999 && lat.P999 <= lat.Max) {
			t.Errorf("%s: percentiles not monotone: %+v", r.Name, *lat)
		}
		// v2 fields: the warmup ramp ran, and the bucket dump carries the
		// full timed-phase mass.
		if r.WarmupOps <= 0 {
			t.Errorf("%s: warmup_ops = %d, want > 0", r.Name, r.WarmupOps)
		}
		var mass uint64
		for _, b := range r.LatencyHist {
			mass += b.Count
		}
		if mass != lat.Count {
			t.Errorf("%s: latency_hist mass %d != count %d", r.Name, mass, lat.Count)
		}
	}
	for _, want := range []string{"ycsb-A-dramhit", "ycsb-A-folklore", "ycsb-C-dramhit", "ycsb-C-folklore"} {
		if !seen[want] {
			t.Errorf("missing run %s", want)
		}
	}

	// WriteJSONFile → parse round-trip, as the CI validation step does.
	path := filepath.Join(t.TempDir(), "sub", "BENCH_ycsb.json")
	if err := WriteJSONFile(path, sum); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back YCSBSummary
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatalf("round-trip parse: %v", err)
	}
	if back.Schema != YCSBSchema || len(back.Runs) != len(sum.Runs) {
		t.Fatalf("round-trip mismatch: %+v", back)
	}
}

// TestArtifactJSON pins the per-experiment JSON rendering -out emits.
func TestArtifactJSON(t *testing.T) {
	a := &Artifact{
		ID:     "x",
		Title:  "T",
		Header: []string{"a"},
		Rows:   [][]string{{"1"}},
		Series: []Series{{Name: "s", X: []float64{1}, Y: []float64{2}}},
	}
	b, err := a.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back Artifact
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.ID != "x" || len(back.Rows) != 1 || len(back.Series) != 1 || back.Series[0].Y[0] != 2 {
		t.Fatalf("round-trip mismatch: %+v", back)
	}
}

// TestPercentilesFromHistogram checks the extraction against known mass.
func TestPercentilesFromHistogram(t *testing.T) {
	var h obs.Histogram
	for i := uint64(1); i <= 1000; i++ {
		h.Record(i)
	}
	p := PercentilesFromHistogram(&h)
	if p.Count != 1000 {
		t.Fatalf("count = %d", p.Count)
	}
	// Log-bucketed: ≤1/32 relative error at each quantile.
	for _, c := range []struct{ got, want float64 }{
		{p.P50, 500}, {p.P90, 900}, {p.P99, 990}, {p.Max, 1000},
	} {
		if c.got < c.want*(1-1.0/16) || c.got > c.want*(1+1.0/16) {
			t.Errorf("quantile %v outside tolerance of %v", c.got, c.want)
		}
	}
	if p.Mean < 490 || p.Mean > 510 {
		t.Errorf("mean = %v, want ~500.5", p.Mean)
	}
}
