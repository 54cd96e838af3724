package hashfn

import (
	"math"
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFastrangeBounds(t *testing.T) {
	sizes := []uint64{1, 2, 3, 7, 100, 1 << 20, 1<<20 + 7, math.MaxUint64}
	hashes := []uint64{0, 1, math.MaxUint64, math.MaxUint64 / 2, 0xdeadbeef}
	for _, n := range sizes {
		for _, h := range hashes {
			got := Fastrange(h, n)
			if got >= n {
				t.Fatalf("Fastrange(%d, %d) = %d, out of range", h, n, got)
			}
		}
	}
}

func TestFastrangeExtremes(t *testing.T) {
	// Hash 0 must map to index 0 and MaxUint64 to the last index: fastrange
	// is monotone in the hash.
	const n = 1000
	if got := Fastrange(0, n); got != 0 {
		t.Errorf("Fastrange(0, %d) = %d, want 0", n, got)
	}
	if got := Fastrange(math.MaxUint64, n); got != n-1 {
		t.Errorf("Fastrange(max, %d) = %d, want %d", n, got, n-1)
	}
}

// TestFastrangeSplitIsQuotientRemainder pins the identity the tables route
// by: FastrangeSplit(h, n, per) is exactly (g/per, g%per) of the one global
// fastrange g over n·per — for hashes at both ends of the range and either
// side of every region boundary, region sizes 1…9 and two table-like ones,
// and region counts from 1 (where it must be plain Fastrange) upward.
func TestFastrangeSplitIsQuotientRemainder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pers := []uint64{1, 2, 3, 4, 5, 6, 7, 8, 9, 1365, 1 << 20}
	for _, n := range []uint64{1, 2, 3, 6, 7, 64, 1000} {
		for _, per := range pers {
			hashes := []uint64{0, 1, 2, math.MaxUint64, math.MaxUint64 - 1, math.MaxUint64 - n*per,
				math.MaxUint64 / 2, math.MaxUint64/2 + 1, 1 << 63, 1<<63 - 1}
			for q := uint64(1); q < n; q++ {
				// The smallest hash region q owns, and its two neighbours.
				edge, _ := bits.Div64(q, 0, n) // ⌊q·2⁶⁴/n⌋
				hashes = append(hashes, edge-1, edge, edge+1)
			}
			for i := 0; i < 2000; i++ {
				hashes = append(hashes, rng.Uint64(), math.MaxUint64-uint64(rng.Intn(1<<20)))
			}
			for _, h := range hashes {
				g := Fastrange(h, n*per)
				q, r := FastrangeSplit(h, n, per)
				if q != g/per || r != g%per {
					t.Fatalf("FastrangeSplit(%#x, %d, %d) = (%d, %d), want (%d, %d)", h, n, per, q, r, g/per, g%per)
				}
				if n == 1 && (q != 0 || r != Fastrange(h, per)) {
					t.Fatalf("one region: FastrangeSplit(%#x, 1, %d) = (%d, %d), want (0, %d)", h, per, q, r, Fastrange(h, per))
				}
			}
		}
	}
}

func TestFastrangeMonotone(t *testing.T) {
	f := func(a, b uint64) bool {
		if a > b {
			a, b = b, a
		}
		const n = 12345
		return Fastrange(a, n) <= Fastrange(b, n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFastrangeUniformity(t *testing.T) {
	// Feed uniform random hashes, check bucket occupancy over a small range
	// stays within 5 sigma of the expectation.
	const n = 64
	const samples = 1 << 18
	rng := rand.New(rand.NewSource(1))
	var counts [n]int
	for i := 0; i < samples; i++ {
		counts[Fastrange(rng.Uint64(), n)]++
	}
	mean := float64(samples) / n
	sigma := math.Sqrt(mean * (1 - 1.0/n))
	for i, c := range counts {
		if math.Abs(float64(c)-mean) > 5*sigma {
			t.Errorf("bucket %d has %d entries, mean %.1f sigma %.1f", i, c, mean, sigma)
		}
	}
}

func TestCity64Bijective(t *testing.T) {
	// City64 must be invertible: distinct inputs give distinct outputs. We
	// cannot check all 2^64, but any collision among random samples would
	// disprove bijectivity immediately.
	seen := make(map[uint64]uint64)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 1<<16; i++ {
		k := rng.Uint64()
		h := City64(k)
		if prev, ok := seen[h]; ok && prev != k {
			t.Fatalf("collision: City64(%d) == City64(%d) == %d", k, prev, h)
		}
		seen[h] = k
	}
}

func TestCity64Deterministic(t *testing.T) {
	f := func(k uint64) bool { return City64(k) == City64(k) }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCRC64Deterministic(t *testing.T) {
	f := func(k uint64) bool { return CRC64(k) == CRC64(k) }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCRC64Spread(t *testing.T) {
	// Sequential keys must not land in sequential buckets: the hash must
	// break up monotone runs. Count how many adjacent keys land within
	// distance 4 of each other in a 2^20 bucket space.
	const n = 1 << 20
	close := 0
	prev := Fastrange(CRC64(0), n)
	for k := uint64(1); k < 4096; k++ {
		cur := Fastrange(CRC64(k), n)
		d := int64(cur) - int64(prev)
		if d < 0 {
			d = -d
		}
		if d <= 4 {
			close++
		}
		prev = cur
	}
	if close > 40 {
		t.Errorf("%d of 4095 adjacent keys hash within distance 4; hash is too sequential", close)
	}
}

func TestBytesMatchesLength(t *testing.T) {
	// Hashes of a prefix and the full slice must differ (with overwhelming
	// probability); also the same content must hash identically regardless
	// of backing array.
	b := []byte("the quick brown fox jumps over the lazy dog")
	h1 := Bytes(b)
	h2 := Bytes(append([]byte(nil), b...))
	if h1 != h2 {
		t.Error("same content, different hash")
	}
	if Bytes(b[:10]) == h1 {
		t.Error("prefix hash equals full hash")
	}
}

func TestBytesEmptyAndShort(t *testing.T) {
	lens := []int{0, 1, 2, 7, 8, 9, 15, 16, 17, 31}
	seen := make(map[uint64]int)
	for _, n := range lens {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(i + 1)
		}
		h := Bytes(b)
		if prev, ok := seen[h]; ok {
			t.Errorf("length %d and %d hash identically", n, prev)
		}
		seen[h] = n
	}
}

func TestBytesAvalanche(t *testing.T) {
	// Flipping one bit should flip roughly half the output bits on average.
	base := []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}
	h0 := Bytes(base)
	total := 0
	const trials = 96
	for i := 0; i < trials; i++ {
		mod := append([]byte(nil), base...)
		mod[i/8] ^= 1 << (i % 8)
		diff := h0 ^ Bytes(mod)
		for diff != 0 {
			total++
			diff &= diff - 1
		}
	}
	avg := float64(total) / trials
	if avg < 24 || avg > 40 {
		t.Errorf("avalanche average %.1f bits flipped, want roughly 32", avg)
	}
}

func BenchmarkCRC64(b *testing.B) {
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += CRC64(uint64(i))
	}
	_ = sink
}

func BenchmarkCity64(b *testing.B) {
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += City64(uint64(i))
	}
	_ = sink
}

func BenchmarkBytes16(b *testing.B) {
	buf := make([]byte, 16)
	var sink uint64
	for i := 0; i < b.N; i++ {
		buf[0] = byte(i)
		sink += Bytes(buf)
	}
	_ = sink
}
