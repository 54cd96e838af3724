// Machine-readable run records: loadgen serializes each run as a RunResult
// (its -json output) with WriteJSONFile.
package bench

import (
	"encoding/json"
	"os"
	"path/filepath"

	"dramhit/internal/obs"
)

// Percentiles summarizes a latency distribution in nanoseconds.
type Percentiles struct {
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
	P999  float64 `json:"p999"`
	Max   float64 `json:"max"`
	Mean  float64 `json:"mean"`
	Count uint64  `json:"count"`
}

// PercentilesFromHistogram extracts the standard summary from a merged
// observability histogram (log-bucketed: values carry the bucket's ≤1/32
// relative error).
func PercentilesFromHistogram(h *obs.Histogram) Percentiles {
	return Percentiles{
		P50:   float64(h.Quantile(0.50)),
		P90:   float64(h.Quantile(0.90)),
		P99:   float64(h.Quantile(0.99)),
		P999:  float64(h.Quantile(0.999)),
		Max:   float64(h.Max()),
		Mean:  h.Mean(),
		Count: h.Count(),
	}
}

// RunResult is one benchmark execution: what ran, how fast, and the latency
// shape. It is loadgen's -json document.
type RunResult struct {
	Name      string  `json:"name"`
	Table     string  `json:"table"`
	Workload  string  `json:"workload"`
	Records   int     `json:"records"`
	Ops       int     `json:"ops"`
	Workers   int     `json:"workers"`
	Theta     float64 `json:"theta"`
	MissRatio float64 `json:"miss_ratio,omitempty"`
	// Exec is the execution mode a flat dramhit or dramhit-p table ran:
	// "direct" (synchronous probes) or "ring" (the prefetch pipeline, which
	// dramhit-p always runs).
	Exec string `json:"exec,omitempty"`
	// Layout is the physical slot layout when it is not the flat default
	// ("bucket", which loadgen -valuesize selects); ValueSize and ValueTheta
	// describe byte-string runs: the value-size cap in bytes and the zipf skew
	// of per-write sizes over [1, ValueSize] (0 = fixed at ValueSize).
	Layout     string  `json:"layout,omitempty"`
	ValueSize  int     `json:"value_size,omitempty"`
	ValueTheta float64 `json:"value_theta,omitempty"`
	// Conns, Pipeline, Proto, TargetRate and Errors describe socket-mode
	// runs (loadgen -socket): client TCP
	// connection count, per-connection pipeline depth, the wire protocol
	// ("resp"), the open-loop target in ops/sec (0 = closed loop), and the
	// number of error replies received.
	Conns      int          `json:"conns,omitempty"`
	Pipeline   int          `json:"pipeline,omitempty"`
	Proto      string       `json:"proto,omitempty"`
	TargetRate float64      `json:"target_rate,omitempty"`
	Errors     uint64       `json:"errors,omitempty"`
	Seconds    float64      `json:"seconds"`
	Mops       float64      `json:"mops"`
	LatencyNS  *Percentiles `json:"latency_ns,omitempty"`
	// LatencyHist is the merged log-bucketed distribution (occupied buckets
	// only), for consumers that need more than the fixed percentiles.
	LatencyHist []obs.HistBucket `json:"latency_hist,omitempty"`
	// OpsByType counts timed operations per op class (get_hit, get_miss,
	// put, upsert, delete_hit, delete_miss) and OpLatencyNS summarizes each
	// class's client-side latency distribution; HotKeys is the merged
	// Space-Saving hot-key ranking when the table ran observed (loadgen
	// -observe or -metrics).
	OpsByType   map[string]uint64      `json:"ops_by_type,omitempty"`
	OpLatencyNS map[string]Percentiles `json:"op_latency_ns,omitempty"`
	HotKeys     []obs.TopKItem         `json:"hot_keys,omitempty"`
}

// WriteJSONFile marshals v indented and writes it to path, creating parent
// directories as needed.
func WriteJSONFile(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if dir := filepath.Dir(path); dir != "." && dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
