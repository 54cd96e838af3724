package hashfn

import (
	"math"
	"math/rand"
	"testing"
)

func TestShard64Bijective(t *testing.T) {
	// Like City64, the splitmix64 finalizer is a bijection; any collision
	// among random samples disproves it immediately.
	seen := make(map[uint64]uint64)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 1<<16; i++ {
		k := rng.Uint64()
		h := Shard64(k)
		if prev, ok := seen[h]; ok && prev != k {
			t.Fatalf("collision: Shard64(%d) == Shard64(%d) == %d", k, prev, h)
		}
		seen[h] = k
	}
}

func TestShard64Uniform(t *testing.T) {
	// Region indices over sequential keys must be uniform: real key streams
	// (ranks, counters, pointers) must spread evenly over the regions.
	const shards = 8
	const samples = 1 << 16
	var counts [shards]int
	for k := uint64(0); k < samples; k++ {
		counts[Shard64(k)>>(64-3)]++
	}
	mean := float64(samples) / shards
	sigma := math.Sqrt(mean * (1 - 1.0/shards))
	for i, c := range counts {
		if math.Abs(float64(c)-mean) > 5*sigma {
			t.Errorf("shard %d has %d keys, mean %.0f sigma %.1f", i, c, mean, sigma)
		}
	}
}

// chiSquaredIndependence builds the (region × home-bucket-group) contingency
// table for keys and returns the chi-squared statistic of the independence
// test. shardOf and bucketOf map a key to its region and its in-region
// home-bucket group respectively.
func chiSquaredIndependence(keys []uint64, shards, groups int,
	shardOf, bucketOf func(uint64) int) float64 {
	obs := make([][]float64, shards)
	for i := range obs {
		obs[i] = make([]float64, groups)
	}
	rowTot := make([]float64, shards)
	colTot := make([]float64, groups)
	n := float64(len(keys))
	for _, k := range keys {
		s, b := shardOf(k), bucketOf(k)
		obs[s][b]++
		rowTot[s]++
		colTot[b]++
	}
	chi2 := 0.0
	for s := 0; s < shards; s++ {
		for b := 0; b < groups; b++ {
			exp := rowTot[s] * colTot[b] / n
			if exp == 0 {
				continue
			}
			d := obs[s][b] - exp
			chi2 += d * d / exp
		}
	}
	return chi2
}

// chi2Critical approximates the upper-tail critical value of the chi-squared
// distribution with df degrees of freedom at normal quantile z, via the
// Wilson–Hilferty cube transform.
func chi2Critical(df int, z float64) float64 {
	d := float64(df)
	v := 1 - 2/(9*d) + z*math.Sqrt(2/(9*d))
	return d * v * v * v
}

// TestShardSelectorIndependence: the region selector (Shard64, high bits) and
// the probe hashes (City64 and CRC64, reduced by Fastrange) must be
// statistically independent, so region routing cannot create correlated
// per-region bucket hotspots — a region's keys land uniformly over its
// buckets. A chi-squared test over the (region, home-bucket-group) joint
// distribution accepts the Shard64 pairings and, as a power check, rejects
// the pathological pairing that derives both coordinates from the same hash.
func TestShardSelectorIndependence(t *testing.T) {
	const (
		shards  = 8
		depth   = 3 // shards == 1<<depth
		groups  = 64
		samples = 1 << 16
		buckets = 1 << 20 // the in-table bucket space being grouped
	)
	// df = (shards-1)(groups-1); accept below the 1e-6 critical value — loose
	// enough to be seed-stable, tight enough that any structural correlation
	// (which shows up as chi2 ≫ 10·df) fails.
	crit := chi2Critical((shards-1)*(groups-1), 4.75)

	keySets := map[string][]uint64{}
	seq := make([]uint64, samples)
	for i := range seq {
		seq[i] = uint64(i)
	}
	keySets["sequential"] = seq
	rng := rand.New(rand.NewSource(4))
	rnd := make([]uint64, samples)
	for i := range rnd {
		rnd[i] = rng.Uint64()
	}
	keySets["random"] = rnd

	shardOf := func(k uint64) int { return int(Shard64(k) >> (64 - depth)) }
	group := func(h uint64) int {
		return int(Fastrange(h, buckets) * groups / buckets)
	}
	for name, keys := range keySets {
		for _, probe := range []struct {
			name string
			fn   func(uint64) uint64
		}{{"city64", City64}, {"crc64", CRC64}} {
			chi2 := chiSquaredIndependence(keys, shards, groups, shardOf,
				func(k uint64) int { return group(probe.fn(k)) })
			if chi2 > crit {
				t.Errorf("%s keys, shard=Shard64 × bucket=%s: chi2 = %.1f > critical %.1f — selector correlates with probe hash",
					name, probe.name, chi2, crit)
			}
		}
	}

	// Power check: deriving the shard from the probe hash's own high bits is
	// maximal correlation (the shard index is a function of the bucket), and
	// the statistic must explode. If this ever passes, the test has no teeth.
	badShard := func(k uint64) int { return int(City64(k) >> (64 - depth)) }
	chi2 := chiSquaredIndependence(keySets["random"], shards, groups, badShard,
		func(k uint64) int { return group(City64(k)) })
	if chi2 < 100*crit {
		t.Errorf("power check: same-hash pairing chi2 = %.1f, expected ≫ %.1f", chi2, 100*crit)
	}
}
