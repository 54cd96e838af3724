package main

import (
	"encoding/binary"
	"math"
	"math/bits"
)

// The harness brings its own generators instead of importing the
// repository's workload packages: the inputs of the measuring device must
// not move when the code under test is refactored.

// mix64 is the splitmix64 finalizer, a bijection on uint64.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// rng is splitmix64: fast, and its whole state is one word derived from the
// run seed and a stream id.
type rng struct{ s uint64 }

func newRNG(seed uint64, stream uint64) *rng {
	return &rng{s: mix64(seed*0x9e3779b97f4a7c15 + stream)}
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	return mix64(r.s)
}

// below returns a uniform integer in [0, n) (multiply-shift; the bias at
// n << 2^64 is far below anything a run can observe).
func (r *rng) below(n uint64) uint64 {
	hi, _ := bits.Mul64(r.next(), n)
	return hi
}

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// zipf draws ranks in [0, n) with P(rank r) ∝ 1/(r+1)^theta (Gray et al.'s
// generator, the one YCSB uses).
type zipf struct {
	n                  float64
	theta, alpha, zeta float64
	eta, half          float64
}

func newZipf(n uint64, theta float64) *zipf {
	var zeta float64
	for i := uint64(1); i <= n; i++ {
		zeta += 1 / math.Pow(float64(i), theta)
	}
	zeta2 := 1 + math.Pow(0.5, theta)
	return &zipf{
		n: float64(n), theta: theta, alpha: 1 / (1 - theta), zeta: zeta,
		eta:  (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta2/zeta),
		half: zeta2,
	}
}

func (z *zipf) rank(r *rng) uint64 {
	u := r.float()
	uz := u * z.zeta
	if uz < 1 {
		return 0
	}
	if uz < z.half {
		return 1
	}
	v := uint64(z.n * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if v >= uint64(z.n) {
		v = uint64(z.n) - 1
	}
	return v
}

// keyspace derives keys and values from the run seed. Key i is a bijective
// mix of i, so distinct indexes give distinct keys and an index the loader
// never inserted is guaranteed absent.
type keyspace struct{ salt uint64 }

func newKeyspace(seed uint64) keyspace { return keyspace{salt: mix64(seed ^ 0x6b65797370616365)} }

func (k keyspace) key(i uint64) uint64 { return mix64(i + k.salt) }

// value64 is the uint64 value stored under key; the top bit is cleared so
// it can never collide with the table's reserved in-flight marker.
func (k keyspace) value64(key uint64) uint64 { return mix64(key^k.salt) >> 1 }

const keyBytes = 16

// appendKey appends the 16-byte printable key of index i (the hex of its
// uint64 key), legal in both wire protocols.
func (k keyspace) appendKey(dst []byte, i uint32) []byte {
	const hex = "0123456789abcdef"
	v := k.key(uint64(i))
	var b [keyBytes]byte
	for j := keyBytes - 1; j >= 0; j-- {
		b[j] = hex[v&15]
		v >>= 4
	}
	return append(dst, b[:]...)
}

// Byte values are a function of (key index, version): an 8-byte header
// naming both, then filler words chained from them. The header lets every
// GET be checked for the right key at the right version; the filler lets a
// sampled full compare detect any corrupted byte.
const valueHeader = 8

// valueLen is the length of version ver of key i in a workload whose values
// span [min, max] bytes.
func valueLen(i, ver uint32, min, max int) int {
	if max == min {
		return min
	}
	return min + int(mix64(uint64(i)<<32|uint64(ver))%uint64(max-min+1))
}

func (k keyspace) appendValue(dst []byte, i, ver uint32, n int) []byte {
	var w [8]byte
	binary.LittleEndian.PutUint32(w[:4], i)
	binary.LittleEndian.PutUint32(w[4:], ver)
	dst = append(dst, w[:]...)
	x := uint64(i)<<32 | uint64(ver)
	for n -= valueHeader; n > 0; n -= 8 {
		x = mix64(x + k.salt)
		binary.LittleEndian.PutUint64(w[:], x)
		if n < 8 {
			dst = append(dst, w[:n]...)
			break
		}
		dst = append(dst, w[:]...)
	}
	return dst
}

// headerOf splits a value's header; ok is false when v is too short to
// carry one.
func headerOf(v []byte) (i, ver uint32, ok bool) {
	if len(v) < valueHeader {
		return 0, 0, false
	}
	return binary.LittleEndian.Uint32(v[:4]), binary.LittleEndian.Uint32(v[4:8]), true
}
