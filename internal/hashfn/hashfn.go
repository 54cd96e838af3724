// Package hashfn provides the hash functions and index-reduction primitives
// used throughout the DRAMHiT hash tables: a hardware-style CRC32-C based
// 64-bit hash, a City-style 64-bit mixer for 8-byte keys, a byte-slice hash
// for variable-length keys (k-mers), and Lemire's fastrange reduction that
// maps a hash into [0, n) without a modulo and without requiring n to be a
// power of two.
package hashfn

import (
	"hash/crc32"
	"math/bits"
)

// castagnoli is the CRC32-C polynomial table. DRAMHiT uses the CRC32
// instruction (SSE4.2) as its default hash; hash/crc32 uses the same
// polynomial and is hardware accelerated on amd64.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// CRC64 hashes an 8-byte key with CRC32-C, widening the 32-bit digest to 64
// bits by mixing the key back in. The paper's implementation uses the raw
// crc32 result as the table index; we fold the high key bits in so that the
// full 64-bit hash has entropy in its upper half too (fastrange consumes the
// high bits first).
func CRC64(key uint64) uint64 {
	var buf [8]byte
	putUint64(buf[:], key)
	c := uint64(crc32.Checksum(buf[:], castagnoli))
	// Spread the 32-bit digest across 64 bits. The multiply by a
	// 64-bit odd constant is a bijection, so no entropy is lost.
	return (c ^ ((key >> 32) * 0x9e3779b97f4a7c15)) * 0xff51afd7ed558ccd
}

// City64 is a fast City/wyhash-style mixer for 8-byte keys. It is a bijection
// on uint64, which several tests exploit (distinct keys can never collide on
// the full 64-bit hash).
func City64(key uint64) uint64 {
	h := key
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// Shard64 is the region-selector scramble behind ShardRange, the byte ring's
// region route. It is the splitmix64 finalizer — a bijection on uint64 like
// City64, but built from a disjoint constant family (0xbf58476d1ce4e5b9 /
// 0x94d049bb133111eb, shifts 30/27/31 versus City64's murmur3 constants and
// 33/33/33), so the bits that pick a key's region are statistically
// independent of the bits that pick its home bucket inside the region. The
// selector consumes the HIGH bits; TestShardSelectorIndependence and
// TestBytes64SelectorIndependence pin the chi-squared independence of the
// (region, home-bucket) joint distribution.
func Shard64(key uint64) uint64 {
	h := key
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// Bytes hashes an arbitrary byte slice (used for k-mer keys longer than 8
// bytes). It is a simple multiply-rotate construction seeded per 8-byte lane,
// finished with the City64 mixer.
func Bytes(b []byte) uint64 {
	var h uint64 = 0x2545f4914f6cdd1d
	for len(b) >= 8 {
		h = mix(h, getUint64(b))
		b = b[8:]
	}
	if len(b) > 0 {
		var tail [8]byte
		copy(tail[:], b)
		h = mix(h, getUint64(tail[:])^uint64(len(b)))
	}
	return City64(h)
}

func mix(h, v uint64) uint64 {
	h ^= v * 0x9e3779b97f4a7c15
	return bits.RotateLeft64(h, 31) * 0xbf58476d1ce4e5b9
}

// xxh3-style striping primes for Bytes64 (the XXH64 prime family, disjoint
// from both the City64/murmur3 finalizer constants and the splitmix64
// constants of Shard64).
const (
	xxPrime1 = 0x9e3779b185ebca87
	xxPrime2 = 0xc2b2ae3d27d4eb4f
	xxPrime3 = 0x165667b19e3779f9
	xxPrime4 = 0x27d4eb2f165667c5
)

// Bytes64 is the byte-string hash of the bucket layout's index (the arena's
// variable-length keys). It is an xxh3-style construction — two independent
// accumulator lanes striped over 16-byte blocks with rotate-multiply folds,
// length-seeded so prefixes of each other cannot collide trivially —
// finished with the City64 avalanche core, so its low byte (the bucket
// fingerprint via table.TagOf) and high bits (the bucket index via
// Fastrange) get the same finalizer quality as the fixed-width hashes.
// Zero-allocation on every input length.
func Bytes64(b []byte) uint64 {
	n := uint64(len(b))
	acc0 := xxPrime1 + n*xxPrime2
	acc1 := uint64(xxPrime3)
	for len(b) >= 16 {
		acc0 = bits.RotateLeft64(acc0^(getUint64(b)*xxPrime2), 27) * xxPrime1
		acc1 = bits.RotateLeft64(acc1^(getUint64(b[8:])*xxPrime1), 29) * xxPrime2
		b = b[16:]
	}
	if len(b) >= 8 {
		acc0 = bits.RotateLeft64(acc0^(getUint64(b)*xxPrime2), 27) * xxPrime1
		b = b[8:]
	}
	var tail uint64
	for i := 0; i < len(b); i++ {
		tail |= uint64(b[i]) << (8 * i)
	}
	// The length seed in acc0 disambiguates inputs whose tails zero-extend
	// to the same word (e.g. "a" vs "a\x00").
	acc0 ^= tail * xxPrime4
	return City64(acc0 + bits.RotateLeft64(acc1, 23))
}

// Fastrange maps a 64-bit hash into [0, n) in an approximately uniform
// manner using the high bits of the 128-bit product hash*n. It replaces the
// modulo reduction and lets table sizes be arbitrary (not powers of two).
func Fastrange(hash, n uint64) uint64 {
	hi, _ := bits.Mul64(hash, n)
	return hi
}

// FastrangeSplit maps hash into [0, n·per) as Fastrange does and returns the
// result g split as (g / per, g % per) — which of n equal regions it falls in
// and where inside that region — without dividing: ⌊⌊x⌋/per⌋ = ⌊x/per⌋ for
// x = hash·n·per/2⁶⁴, so the quotient is itself a fastrange over n. With one
// region it is (0, Fastrange(hash, per)).
func FastrangeSplit(hash, n, per uint64) (q, r uint64) {
	q = Fastrange(hash, n)
	return q, Fastrange(hash, n*per) - q*per
}

// ShardRange picks which of n regions a hash falls in when Fastrange of the
// same hash also picks the home bucket inside the region: the selector
// scrambles the hash through Shard64 first, because Fastrange over both the
// raw hash and the in-region index would consume the same high bits and
// cluster each region's keys into a band of its buckets. With one region it
// is 0.
func ShardRange(hash, n uint64) uint64 { return Fastrange(Shard64(hash), n) }

func putUint64(b []byte, v uint64) {
	_ = b[7]
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
	b[4] = byte(v >> 32)
	b[5] = byte(v >> 40)
	b[6] = byte(v >> 48)
	b[7] = byte(v >> 56)
}

func getUint64(b []byte) uint64 {
	_ = b[7]
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}
