package main

import (
	"math"
	"math/bits"
	"sort"
)

// hist is a log-linear histogram of nanosecond durations: exact below 256,
// then 256 sub-buckets per power of two, so a bucket is at most 1/256 wide
// relative to its values. A percentile is interpolated by rank inside its
// bucket, which keeps reported latencies from snapping to a grid.
type hist struct {
	counts [histBuckets]uint32
	n      uint64
	max    uint64
}

const (
	histSubBits = 8
	histSub     = 1 << histSubBits
	// Durations are clamped below 2^41 ns (36 minutes); no run lasts that long.
	histMaxExp  = 40
	histBuckets = (histMaxExp-histSubBits+1)*histSub + histSub
)

func histBucket(v uint64) int {
	if v < histSub {
		return int(v)
	}
	e := bits.Len64(v) - 1
	if e > histMaxExp {
		return histBuckets - 1
	}
	return (e-histSubBits+1)*histSub + int(v>>(e-histSubBits))&(histSub-1)
}

// histBounds is the half-open value range [low, low+width) of bucket b.
func histBounds(b int) (low, width float64) {
	if b < histSub {
		return float64(b), 1
	}
	shift := b/histSub - 1
	return float64(uint64(histSub+b%histSub) << shift), float64(uint64(1) << shift)
}

func (h *hist) add(v uint64) {
	h.counts[histBucket(v)]++
	h.n++
	if v > h.max {
		h.max = v
	}
}

func (h *hist) reset() { *h = hist{} }

// merge adds o's samples to h.
func (h *hist) merge(o *hist) {
	for b, c := range o.counts {
		h.counts[b] += c
	}
	h.n += o.n
	h.max = max(h.max, o.max)
}

// percentile returns the nearest-rank p-quantile (0 < p <= 1) in ns; 0 when
// the histogram is empty.
func (h *hist) percentile(p float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(p * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for b, c := range h.counts {
		if cum+uint64(c) >= rank {
			// The bucket's c samples are taken as evenly spread over it.
			low, width := histBounds(b)
			return low + width*(float64(rank-cum)-0.5)/float64(c)
		}
		cum += uint64(c)
	}
	return float64(h.max)
}

// quantile is the nearest-rank q-quantile of xs (xs is not modified): the
// smallest element with at least q of the values at or below it. Empty
// input gives 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// Interference on a shared box only ever adds time, and it comes in phases
// that can outlast a run, so timing metrics are read from the quietest
// windows: a rate is the mean of the best share of window rates, a latency
// the mean of the lowest share, a CPU cost that of the windows the rate is
// read from. With no more busy threads than
// vCPUs the machine's ceiling is sharp: many windows sit near it, and the
// fewer of them an estimate needs, the longer a slow phase it survives. The
// share that varied least from run to run was measured on the reference box
// (README, "Noise").
const quietShare = 0.02

// quietCount is how many of n windows count as the quiet ones; 0 only for 0.
func quietCount(n int) int {
	return min(n, max(1, int(math.Ceil(quietShare*float64(n)))))
}

// tailMean is the mean of the quietCount largest (or smallest) values of
// xs, which is not modified. Empty input gives 0.
func tailMean(xs []float64, largest bool) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := quietCount(len(s))
	if largest {
		s = s[len(s)-k:]
	} else {
		s = s[:k]
	}
	return mean(s)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// cv is the coefficient of variation (population standard deviation over
// the mean).
func cv(xs []float64) float64 {
	m := mean(xs)
	if m == 0 {
		return 0
	}
	var ss float64
	for _, x := range xs {
		ss += (x - m) * (x - m)
	}
	return math.Sqrt(ss/float64(len(xs))) / m
}

func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(xs, n=4) gives them (the exclusive method), which is
// what the benchmark contract measures spread with. It needs two values.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n < 2 {
		return median(xs), median(xs)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(k int) float64 {
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := k*(n+1) - j*4
		return (s[j-1]*float64(4-d) + s[j]*float64(d)) / 4
	}
	return at(1), at(3)
}

// windowRec is one window: every worker ran ops operations, starting
// together. ns is the slowest worker's time, so ops*workers/ns is the rate
// the system sustained with all workers running.
type windowRec struct {
	ops     int // per worker
	workers int
	ns      int64 // slowest worker
	cpuNS   int64 // CPU the process under test spent during the window
	// Latency percentiles in ns, over the samples of all workers.
	p50, p99 float64
	max      uint64
	traced   bool
}

func (w windowRec) totalOps() int { return w.ops * w.workers }
func (w windowRec) rate() float64 { return float64(w.totalOps()) / (float64(w.ns) / 1e9) }

// summary condenses windows into the timing metrics.
type summary struct {
	opsPerS     float64 // quiet window rate
	latP50us    float64 // quiet window median
	latP99us    float64
	cpuSPerMop  float64 // CPU per op of the process under test in the windows opsPerS is read from
	meanOpsPerS float64 // untrimmed: all ops over all window time
	windowCV    float64
	latMaxUs    float64
	ops         int
}

// summarize reads the metrics from the windows selected by keep (all of
// them when keep is nil).
func summarize(recs []windowRec, keep func(windowRec) bool) summary {
	var s summary
	var kept []windowRec
	var rates, p50s, p99s []float64
	var ns int64
	for _, w := range recs {
		if keep != nil && !keep(w) {
			continue
		}
		kept = append(kept, w)
		rates = append(rates, w.rate())
		p50s = append(p50s, w.p50)
		p99s = append(p99s, w.p99)
		if us := float64(w.max) / 1e3; us > s.latMaxUs {
			s.latMaxUs = us
		}
		ns += w.ns
		s.ops += w.totalOps()
	}
	s.opsPerS = tailMean(rates, true)
	s.latP50us = tailMean(p50s, false) / 1e3
	s.latP99us = tailMean(p99s, false) / 1e3
	// The CPU cost is that of the windows that ran at the quiet rate. Its own
	// lowest windows would be the ones in which the server happened to find
	// the most requests per read, a small cluster whose size varies by run.
	sort.SliceStable(kept, func(i, j int) bool { return kept[i].rate() > kept[j].rate() })
	var cpuNS, cpuOps int64
	for _, w := range kept[:quietCount(len(kept))] {
		cpuNS += w.cpuNS
		cpuOps += int64(w.totalOps())
	}
	if cpuOps > 0 {
		s.cpuSPerMop = float64(cpuNS) / 1e3 / float64(cpuOps) // ns/op/1000 = s/Mop
	}
	if ns > 0 {
		s.meanOpsPerS = float64(s.ops) / (float64(ns) / 1e9)
	}
	s.windowCV = cv(rates)
	return s
}
