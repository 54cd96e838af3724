package main

import (
	"dramhit/internal/hashfn"
	"dramhit/internal/simd"
	"dramhit/internal/table"
)

// sink keeps the compiler from discarding the micro loops' results.
var sink uint64

// microIters is fixed so a micro rung measures the same work on every run
// (about 0.1-0.3 s each on the reference box).
const microIters = 1 << 25

// timeLoop returns ns per iteration of body, the fastest of three passes:
// these loops are L1-resident, where interference only adds time.
func timeLoop(iters int, body func(iters int)) float64 {
	best := 0.0
	for pass := 0; pass < 3; pass++ {
		t0 := now()
		body(iters)
		if ns := float64(now()-t0) / float64(iters); pass == 0 || ns < best {
			best = ns
		}
	}
	return best
}

// microRungs times the pure functions under every workload: the two hashes
// and the two line-probe kernels, each fed by a dependent chain so the loop
// measures latency, not issue width.
func microRungs(seed uint64, m map[string]float64) {
	x := mix64(seed) | 1
	m["hashfn.city64_ns"] = timeLoop(microIters, func(n int) {
		h := x
		for i := 0; i < n; i++ {
			h = hashfn.City64(h)
		}
		sink += h
	})

	key := newKeyspace(seed).appendKey(nil, 1)
	m["hashfn.bytes64_ns"] = timeLoop(microIters/2, func(n int) {
		var h uint64
		for i := 0; i < n; i++ {
			key[0] = "0123456789abcdef"[h&15]
			h = hashfn.Bytes64(key)
		}
		sink += h
	})

	// A full line whose last lane holds the key: the probe compares all four
	// lanes, the common case of a hit at 75% fill.
	lanes := [4]uint64{mix64(x + 1), mix64(x + 2), mix64(x + 3), mix64(x + 4)}
	m["simd.probeline4_ns"] = timeLoop(microIters, func(n int) {
		acc := 0
		for i := 0; i < n; i++ {
			lane, res := simd.ProbeLine4(lanes[0], lanes[1], lanes[2], lanes[3],
				lanes[3-acc&1], table.EmptyKey, acc&1)
			acc += lane + int(res)
		}
		sink += uint64(acc)
	})

	meta := mix64(x+5) | 0x7f // all seven lanes published
	m["simd.bucketcand7_ns"] = timeLoop(microIters, func(n int) {
		var acc uint8
		for i := 0; i < n; i++ {
			acc += simd.BucketCandidates7(meta, uint8(i)|acc&1|1)
		}
		sink += uint64(acc)
	})
}
