// Package latency records per-request completion latencies and computes the
// cumulative distribution the paper plots in Figure 9.
package latency

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Recorder accumulates latency samples (any unit; the harness uses cycles).
// It keeps every sample up to a cap and then switches to reservoir sampling,
// so memory stays bounded while the distribution stays unbiased.
type Recorder struct {
	samples []float64
	seen    uint64
	cap     int
	// xorshift state for the reservoir; deterministic.
	rng uint64
}

// NewRecorder creates a recorder keeping at most capSamples samples
// (0 selects 1<<20).
func NewRecorder(capSamples int) *Recorder {
	if capSamples <= 0 {
		capSamples = 1 << 20
	}
	return &Recorder{cap: capSamples, rng: 0x9e3779b97f4a7c15}
}

func (r *Recorder) next() uint64 {
	r.rng ^= r.rng << 13
	r.rng ^= r.rng >> 7
	r.rng ^= r.rng << 17
	return r.rng
}

// Add records one sample.
func (r *Recorder) Add(v float64) {
	r.seen++
	if len(r.samples) < r.cap {
		r.samples = append(r.samples, v)
		return
	}
	// Reservoir: replace a random slot with probability cap/seen.
	if idx := r.next() % r.seen; idx < uint64(r.cap) {
		r.samples[idx] = v
	}
}

// Count returns the number of samples observed (not retained).
func (r *Recorder) Count() uint64 { return r.seen }

// CDF summarizes the recorded distribution.
type CDF struct {
	sorted []float64
}

// CDF sorts and freezes the distribution.
func (r *Recorder) CDF() *CDF {
	s := append([]float64(nil), r.samples...)
	sort.Float64s(s)
	return &CDF{sorted: s}
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1).
func (c *CDF) Quantile(q float64) float64 {
	if len(c.sorted) == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return c.sorted[0]
	}
	if q >= 1 {
		return c.sorted[len(c.sorted)-1]
	}
	pos := q * float64(len(c.sorted)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(c.sorted) {
		return c.sorted[lo]
	}
	return c.sorted[lo]*(1-frac) + c.sorted[lo+1]*frac
}

// At returns the cumulative proportion of samples ≤ v.
func (c *CDF) At(v float64) float64 {
	if len(c.sorted) == 0 {
		return math.NaN()
	}
	// Upper bound — the first index whose sample exceeds v — so runs of
	// equal values are included in O(log n); the previous linear walk over
	// ties degraded to O(n) on the heavily tied distributions quantized
	// timers produce.
	idx := sort.Search(len(c.sorted), func(i int) bool { return c.sorted[i] > v })
	return float64(idx) / float64(len(c.sorted))
}

// Mean returns the sample mean.
func (c *CDF) Mean() float64 {
	if len(c.sorted) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, v := range c.sorted {
		sum += v
	}
	return sum / float64(len(c.sorted))
}

// Len returns the retained sample count.
func (c *CDF) Len() int { return len(c.sorted) }

// Series renders the CDF as (latency, cumulative-proportion) pairs at
// log-spaced latencies, matching Figure 9's log-x presentation.
func (c *CDF) Series(points int) [][2]float64 {
	if len(c.sorted) == 0 || points < 2 {
		return nil
	}
	lo, hi := c.sorted[0], c.sorted[len(c.sorted)-1]
	if lo < 1 {
		lo = 1
	}
	if hi <= lo {
		hi = lo + 1
	}
	out := make([][2]float64, 0, points)
	for i := 0; i < points; i++ {
		x := lo * math.Pow(hi/lo, float64(i)/float64(points-1))
		out = append(out, [2]float64{x, c.At(x)})
	}
	return out
}

// String renders a compact percentile table.
func (c *CDF) String() string {
	var b strings.Builder
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		fmt.Fprintf(&b, "p%g=%0.0f ", q*100, c.Quantile(q))
	}
	return strings.TrimSpace(b.String())
}
