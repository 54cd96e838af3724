package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// Histogram is a fixed-size log-bucketed histogram for hot-path latency and
// size distributions: Record is zero-alloc and lock-free (one uncontended
// atomic add), histograms merge exactly (bucket-wise addition, so merging is
// associative and commutative), and quantiles carry a hard relative error
// bound set by the bucket geometry.
//
// Bucketing follows the HDR scheme: values below histSubCount are recorded
// exactly (their own bucket each); above that, every power-of-two octave is
// split into histSubCount sub-buckets, so a bucket's width over its lower
// bound never exceeds 1/histSubCount — quantile estimates (bucket midpoints)
// are within ±1.6% of the true sample, and every bucket boundary of the form
// sub<<exp is exact. It is the latency sink of every real-execution run;
// latency.Recorder's reservoir keeps exact CDFs for Figure 9's simulated
// cycles only. The histogram keeps everything, bounded, mergeable and
// scrapeable live.
type Histogram struct {
	counts [NumHistBuckets]atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Uint64
}

const (
	// histSubBits sets the sub-bucket resolution: 2^histSubBits sub-buckets
	// per octave, bounding relative bucket width by 2^-histSubBits (3.125%).
	histSubBits  = 5
	histSubCount = 1 << histSubBits

	// NumHistBuckets covers the full uint64 range: histSubCount exact
	// buckets, then (64 - histSubBits - 1) octaves of histSubCount
	// sub-buckets each (the first split octave shares indices with the
	// exact region's top, see histBucketOf).
	NumHistBuckets = (64 - histSubBits + 1) * histSubCount
)

// histBucketOf maps a value to its bucket index. Values below histSubCount
// map to themselves (exact); larger values keep their top histSubBits+1
// significand bits.
func histBucketOf(v uint64) int {
	if v < histSubCount {
		return int(v)
	}
	exp := bits.Len64(v) - 1 - histSubBits
	// sub is in [histSubCount, 2*histSubCount): the leading bit plus the
	// next histSubBits bits of v.
	sub := int(v >> uint(exp))
	return exp<<histSubBits + sub
}

// HistBucketBounds returns the inclusive value range [lo, hi] covered by
// bucket i.
func HistBucketBounds(i int) (lo, hi uint64) {
	if i < histSubCount {
		return uint64(i), uint64(i)
	}
	exp := uint(i>>histSubBits) - 1
	sub := uint64(i) - uint64(exp)<<histSubBits
	lo = sub << exp
	return lo, lo + 1<<exp - 1
}

// Record adds one observation. Safe for concurrent use; allocation-free.
func (h *Histogram) Record(v uint64) { h.RecordN(v, 1) }

// RecordN adds n observations of value v.
func (h *Histogram) RecordN(v, n uint64) {
	h.counts[histBucketOf(v)].Add(n)
	h.count.Add(n)
	h.sum.Add(v * n)
}

// Merge adds o's observations into h (bucket-wise, exact). o may be recorded
// into concurrently; the merge then reflects some consistent-enough snapshot
// of a monotonically growing histogram.
func (h *Histogram) Merge(o *Histogram) {
	for i := range o.counts {
		if n := o.counts[i].Load(); n != 0 {
			h.counts[i].Add(n)
		}
	}
	h.count.Add(o.count.Load())
	h.sum.Add(o.sum.Load())
}

// Count returns the number of recorded observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of recorded values.
func (h *Histogram) Sum() uint64 { return h.sum.Load() }

// Mean returns the exact sample mean (sum and count are tracked exactly).
func (h *Histogram) Mean() float64 {
	n := h.count.Load()
	if n == 0 {
		return math.NaN()
	}
	return float64(h.sum.Load()) / float64(n)
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) as the midpoint of the bucket
// holding the nearest-rank sample — within ±(2^-histSubBits)/2 relative of
// the true sample value.
func (h *Histogram) Quantile(q float64) float64 {
	n := h.count.Load()
	if n == 0 {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(q * float64(n-1))
	var cum uint64
	for i := range h.counts {
		c := h.counts[i].Load()
		if c == 0 {
			continue
		}
		cum += c
		if cum > rank {
			lo, hi := HistBucketBounds(i)
			return float64(lo+hi) / 2
		}
	}
	// Racing recorders can leave count ahead of the bucket sum; report the
	// largest occupied bucket.
	return h.Max()
}

// Max returns the upper bound of the highest occupied bucket (≥ the true
// maximum, within the bucket width).
func (h *Histogram) Max() float64 {
	for i := NumHistBuckets - 1; i >= 0; i-- {
		if h.counts[i].Load() != 0 {
			_, hi := HistBucketBounds(i)
			return float64(hi)
		}
	}
	return math.NaN()
}

// Min returns the lower bound of the lowest occupied bucket.
func (h *Histogram) Min() float64 {
	for i := 0; i < NumHistBuckets; i++ {
		if h.counts[i].Load() != 0 {
			lo, _ := HistBucketBounds(i)
			return float64(lo)
		}
	}
	return math.NaN()
}

// CountAtOrBelow returns the number of observations in buckets entirely at
// or below v. Exact when v is of the form 2^k-1 (bucket boundaries align
// with octaves), which is what the Prometheus renderer uses for its
// cumulative `le` bounds.
func (h *Histogram) CountAtOrBelow(v uint64) uint64 {
	var cum uint64
	for i := range h.counts {
		if _, hi := HistBucketBounds(i); hi > v {
			break
		}
		cum += h.counts[i].Load()
	}
	return cum
}

// Reset zeroes the histogram. Not safe against concurrent Record.
func (h *Histogram) Reset() {
	for i := range h.counts {
		h.counts[i].Store(0)
	}
	h.count.Store(0)
	h.sum.Store(0)
}

// HistBucket is one occupied bucket of a Histogram snapshot: the inclusive
// value range [Lo, Hi] and the number of observations that landed in it.
type HistBucket struct {
	Lo    uint64 `json:"lo"`
	Hi    uint64 `json:"hi"`
	Count uint64 `json:"count"`
}

// Buckets returns the occupied buckets in ascending value order — the full
// distribution, not just the Snapshot percentiles. Artifact writers (loadgen
// -json, bench) embed this so a run's latency shape survives into the JSON.
func (h *Histogram) Buckets() []HistBucket {
	var out []HistBucket
	for i := 0; i < NumHistBuckets; i++ {
		if n := h.counts[i].Load(); n != 0 {
			lo, hi := HistBucketBounds(i)
			out = append(out, HistBucket{Lo: lo, Hi: hi, Count: n})
		}
	}
	return out
}

// HistSnapshot is a frozen summary used by the expvar/JSON exports.
type HistSnapshot struct {
	Count uint64  `json:"count"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
	P999  float64 `json:"p999"`
	Max   float64 `json:"max"`
}

// Snapshot summarizes the histogram. NaNs (empty histogram) are reported as
// zeros so the result is JSON-encodable.
func (h *Histogram) Snapshot() HistSnapshot {
	z := func(v float64) float64 {
		if math.IsNaN(v) {
			return 0
		}
		return v
	}
	return HistSnapshot{
		Count: h.Count(),
		Mean:  z(h.Mean()),
		P50:   z(h.Quantile(0.50)),
		P90:   z(h.Quantile(0.90)),
		P99:   z(h.Quantile(0.99)),
		P999:  z(h.Quantile(0.999)),
		Max:   z(h.Max()),
	}
}
