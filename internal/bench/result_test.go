package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"dramhit/internal/obs"
)

// TestRunResultRoundTrip pins loadgen's -json contract: WriteJSONFile
// creates missing parent directories, and a RunResult built from a merged
// histogram parses back unchanged, with monotone percentiles and a bucket
// dump that carries the whole count (CI's latency_hist check).
func TestRunResultRoundTrip(t *testing.T) {
	var h obs.Histogram
	for i := uint64(1); i <= 5000; i++ {
		h.Record(i * 37 % 9001)
	}
	pct := PercentilesFromHistogram(&h)
	res := RunResult{
		Name: "loadgen-A-dramhit", Table: "dramhit", Workload: "A",
		Records: 1000, Ops: 5000, Workers: 2, Theta: 0.99,
		Seconds: 0.5, Mops: 0.01,
		LatencyNS:   &pct,
		LatencyHist: h.Buckets(),
		OpsByType:   map[string]uint64{"get_hit": 2500, "put": 2500},
		OpLatencyNS: map[string]Percentiles{"put": pct},
	}
	if !(pct.P50 <= pct.P90 && pct.P90 <= pct.P99 && pct.P99 <= pct.P999 && pct.P999 <= pct.Max) {
		t.Errorf("percentiles not monotone: %+v", pct)
	}
	var mass uint64
	for _, b := range res.LatencyHist {
		mass += b.Count
	}
	if mass != pct.Count || pct.Count != 5000 {
		t.Errorf("latency_hist mass %d, count %d, want 5000", mass, pct.Count)
	}

	path := filepath.Join(t.TempDir(), "sub", "run.json")
	if err := WriteJSONFile(path, res); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back RunResult
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatalf("round-trip parse: %v", err)
	}
	if !reflect.DeepEqual(back, res) {
		t.Fatalf("round-trip mismatch:\n got %+v\nwant %+v", back, res)
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
