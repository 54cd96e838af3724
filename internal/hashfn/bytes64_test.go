package hashfn

import (
	"encoding/binary"
	"math/rand"
	"strconv"
	"testing"
)

func TestBytes64Deterministic(t *testing.T) {
	// Same content must hash identically regardless of backing array, and
	// re-hashing must be stable.
	b := []byte("the quick brown fox jumps over the lazy dog")
	h1 := Bytes64(b)
	h2 := Bytes64(append([]byte(nil), b...))
	if h1 != h2 {
		t.Error("same content, different hash")
	}
	if Bytes64(b) != h1 {
		t.Error("re-hash differs")
	}
}

func TestBytes64LengthAndContent(t *testing.T) {
	// Prefixes, zero extensions, and nearby lengths must all hash apart:
	// acc0 is seeded with the length, so "abc" and "abc\x00" cannot collide
	// by construction, and the all-zero inputs of every length differ too.
	b := []byte("the quick brown fox jumps over the lazy dog")
	if Bytes64(b[:10]) == Bytes64(b) {
		t.Error("prefix hash equals full hash")
	}
	if Bytes64([]byte("abc")) == Bytes64([]byte("abc\x00")) {
		t.Error("zero-extended key collides with its prefix")
	}
	seen := make(map[uint64]int)
	for _, n := range []int{0, 1, 2, 3, 7, 8, 9, 15, 16, 17, 23, 31, 32, 33, 63, 64, 65} {
		if h := Bytes64(make([]byte, n)); func() bool {
			prev, ok := seen[h]
			seen[h] = n
			return ok && prev != n
		}() {
			t.Errorf("all-zero inputs of two lengths collide at length %d", n)
		}
	}
}

func TestBytes64Avalanche(t *testing.T) {
	// Flipping one input bit should flip roughly half the 64 output bits.
	// 24 bytes spans both lanes of the two-lane stripe loop.
	base := make([]byte, 24)
	for i := range base {
		base[i] = byte(i * 7)
	}
	h0 := Bytes64(base)
	total := 0
	trials := len(base) * 8
	for i := 0; i < trials; i++ {
		mod := append([]byte(nil), base...)
		mod[i/8] ^= 1 << (i % 8)
		diff := h0 ^ Bytes64(mod)
		for diff != 0 {
			total++
			diff &= diff - 1
		}
	}
	avg := float64(total) / float64(trials)
	if avg < 24 || avg > 40 {
		t.Errorf("avalanche average %.1f bits flipped, want roughly 32", avg)
	}
}

// TestBytes64Uniform is the distribution guarantee for the bucket layout's
// home-bucket selector: Fastrange over Bytes64 must spread realistic key
// streams (little-endian counters, short ASCII strings) evenly over the
// bucket space. A chi-squared goodness-of-fit test over cell counts accepts
// each stream well below the 1e-6 critical value.
func TestBytes64Uniform(t *testing.T) {
	const (
		cells   = 256
		samples = 1 << 16
		buckets = 1 << 20
	)
	crit := chi2Critical(cells-1, 4.75)

	streams := map[string]func(i int) []byte{
		"le-counter": func(i int) []byte {
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], uint64(i))
			return b[:]
		},
		"ascii": func(i int) []byte {
			return []byte("user:" + strconv.Itoa(i))
		},
	}
	rng := rand.New(rand.NewSource(7))
	streams["random-var"] = func(i int) []byte {
		b := make([]byte, 1+rng.Intn(40))
		rng.Read(b)
		return b
	}
	for name, gen := range streams {
		var counts [cells]float64
		seen := make(map[string]bool)
		n := 0
		for i := 0; n < samples; i++ {
			k := gen(i)
			if seen[string(k)] {
				continue // variable-length streams may repeat; count distinct keys
			}
			seen[string(k)] = true
			counts[Fastrange(Bytes64(k), buckets)*cells/buckets]++
			n++
		}
		exp := float64(samples) / cells
		chi2 := 0.0
		for _, c := range counts {
			d := c - exp
			chi2 += d * d / exp
		}
		if chi2 > crit {
			t.Errorf("%s stream: chi2 = %.1f > critical %.1f — Bytes64 buckets non-uniformly", name, chi2, crit)
		}
	}
}

// TestBytes64SelectorIndependence pins the byte region route's hygiene:
// ShardRange derives the region from Shard64(Bytes64(k)) and the
// in-region home bucket from Fastrange(Bytes64(k), nb) — the scramble
// exists precisely so the two coordinates, both consuming the hash's high
// bits, stay statistically independent. The power check shows the pairing
// the scramble avoids (region straight from the raw hash's high bits)
// explodes the statistic.
func TestBytes64SelectorIndependence(t *testing.T) {
	const (
		parts   = 8
		depth   = 3 // parts == 1<<depth
		groups  = 64
		samples = 1 << 16
		buckets = 1 << 20
	)
	crit := chi2Critical((parts-1)*(groups-1), 4.75)

	keys := make([]uint64, samples)
	hv := make(map[uint64]uint64, samples)
	for i := range keys {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(i))
		keys[i] = uint64(i)
		hv[uint64(i)] = Bytes64(b[:])
	}
	group := func(h uint64) int { return int(Fastrange(h, buckets) * groups / buckets) }
	chi2 := chiSquaredIndependence(keys, parts, groups,
		func(k uint64) int { return int(Shard64(hv[k]) >> (64 - depth)) },
		func(k uint64) int { return group(hv[k]) })
	if chi2 > crit {
		t.Errorf("part=Shard64∘Bytes64 × bucket=Bytes64: chi2 = %.1f > critical %.1f — partition selector correlates with home bucket",
			chi2, crit)
	}

	// Power check: the unscrambled pairing is maximal correlation.
	bad := chiSquaredIndependence(keys, parts, groups,
		func(k uint64) int { return int(hv[k] >> (64 - depth)) },
		func(k uint64) int { return group(hv[k]) })
	if bad < 100*crit {
		t.Errorf("power check: raw-hash pairing chi2 = %.1f, expected ≫ %.1f", bad, 100*crit)
	}
}

func BenchmarkBytes64(b *testing.B) {
	for _, n := range []int{8, 16, 64, 256} {
		buf := make([]byte, n)
		for i := range buf {
			buf[i] = byte(i)
		}
		b.Run(map[int]string{8: "8", 16: "16", 64: "64", 256: "256"}[n], func(b *testing.B) {
			b.SetBytes(int64(n))
			var sink uint64
			for i := 0; i < b.N; i++ {
				sink += Bytes64(buf)
			}
			_ = sink
		})
	}
}
