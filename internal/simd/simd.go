// Package simd emulates the AVX-512 probing kernel of DRAMHiT-P-SIMD
// (paper §3.4, Listing 1) in portable Go. The paper loads a whole 64-byte
// cache line (four key/value slots) into a 512-bit register, compares the
// probe key against all four key lanes at once with a masked vector compare,
// and uses conditional (masked) operations instead of branches.
//
// Go has no SIMD intrinsics, so ProbeLine4 reproduces the structure of that
// kernel — lane-parallel compare producing a bitmask, cidx masking so only
// lanes at or after the probe entry position participate, and a branch-free
// first-match select — with 8-byte scalar lanes. It is the one flat probe of
// both live tables. BucketCandidates7 is the bucket layout's byte-lane
// counterpart over its in-cell fingerprints. (The simulator's scalar-versus-
// SIMD comparison is a cost model in internal/simtable; it does not run this
// code.)
//
// The one thing here that is not portable Go is Prefetch: the paper's other
// hardware dependency, software prefetch, is a single instruction the Go
// assembler does have, so it lives in this leaf package as a per-architecture
// assembly stub with a no-op fallback.
package simd

import "math/bits"

// LaneCount is the number of key lanes per cache line (four 16-byte
// key/value slots per 64-byte line).
const LaneCount = 4

// keyCmpMasks[cidx] selects which lane comparisons are valid when the probe
// enters the line at slot offset cidx — the direct analogue of Listing 1's
// key_cmp_masks array ("cidx: 1; only last three comparisons valid").
var keyCmpMasks = [LaneCount]uint8{
	0b1111, // cidx 0: all four comparisons valid
	0b1110, // cidx 1: last three
	0b1100, // cidx 2: last two
	0b1000, // cidx 3: last one
}

// ProbeResult classifies the outcome of a line probe.
type ProbeResult uint8

// Probe outcomes.
const (
	// Miss means neither the key nor an empty slot is in the line; the
	// caller reprobes into the next line.
	Miss ProbeResult = iota
	// HitKey means the key was found.
	HitKey
	// HitEmpty means an empty slot terminates the probe chain first.
	HitEmpty
)

// ProbeLine4 performs the paper's vectorized probe over one line of key
// lanes l0..l3: it computes the key-equality mask and the empty-slot mask in
// lane parallel, selects whichever match comes first in probe order at or
// after lane cidx, and returns the lane offset. emptyKey is the key-space
// value marking empty slots; tombstoned lanes match neither mask and are
// skipped implicitly.
//
// The lanes are passed in registers so no lane array is materialized on the
// stack. Each lane comparison is written as a separate single-assignment
// conditional, which the compiler lowers to a flag-setting compare plus
// SETcc — the scalar ISA's closest analogue to one lane of
// _mm512_cmpeq_epu64_mask, and ~2.5x cheaper than an arithmetic
// (x|-x)>>63 encoding. This is the innermost call of the probe loop; sharing
// the lane reads and the single keyCmpMasks lookup keeps it to one call
// frame.
func ProbeLine4(l0, l1, l2, l3, key, emptyKey uint64, cidx int) (lane int, res ProbeResult) {
	var k0, k1, k2, k3, e0, e1, e2, e3 uint8
	if l0 == key {
		k0 = 1
	}
	if l1 == key {
		k1 = 1
	}
	if l2 == key {
		k2 = 1
	}
	if l3 == key {
		k3 = 1
	}
	if l0 == emptyKey {
		e0 = 1
	}
	if l1 == emptyKey {
		e1 = 1
	}
	if l2 == emptyKey {
		e2 = 1
	}
	if l3 == emptyKey {
		e3 = 1
	}
	keyMask := k0 | k1<<1 | k2<<2 | k3<<3
	emptyMask := e0 | e1<<1 | e2<<2 | e3<<3
	valid := keyCmpMasks[cidx]
	keyMask &= valid
	emptyMask &= valid
	// The first match in probe order wins: whichever mask has the lower
	// set bit. Merging the masks and testing which one owns the lowest
	// bit is branch-free.
	combined := keyMask | emptyMask
	if combined == 0 {
		return 0, Miss
	}
	low := combined & (-combined) // isolate lowest set bit
	lane = bits.TrailingZeros8(low)
	// res = HitKey if the lowest bit belongs to keyMask else HitEmpty,
	// selected without a data-dependent branch.
	isKey := uint8(0)
	if keyMask&low != 0 { // compiles to a flag-setting compare + SETcc
		isKey = 1
	}
	res = ProbeResult(uint8(HitEmpty) - isKey*(uint8(HitEmpty)-uint8(HitKey)))
	return lane, res
}

// ----- 8-wide byte-lane kernel (tag fingerprints) -----
//
// A word of eight packed fingerprint bytes answers, branch-free, "which of
// these 8 slots could hold my key?" from one load. Byte lane b of the word
// is slot base+b (little-endian byte order). The bucket layout's meta word
// is such a word (BucketCandidates7).

// TagLanes is the number of tag bytes per packed tag word.
const TagLanes = 8

const (
	loBytes = 0x0101010101010101 // 0x01 in every byte lane
	hiBits  = 0x8080808080808080 // 0x80 in every byte lane
)

// BroadcastByte replicates b into all eight byte lanes of a word — the
// scalar analogue of _mm512_set1_epi8.
func BroadcastByte(b uint8) uint64 {
	return uint64(b) * loBytes
}

// matchBits returns a word with 0x80 set in exactly the byte lanes of w
// equal to the broadcast byte pattern bcast, and zero elsewhere. This is the
// exact byte-equality SWAR: the textbook haszero(w^bcast) form admits
// cross-byte borrow false positives (a lane holding value 1 is falsely
// flagged when the lane below it borrows), so instead each lane's low seven
// bits are summed with 0x7f — carrying into bit 7 iff any of them is set —
// and the carry is OR-ed with the lane's own bit 7. Bit 7 of the result is
// then 0 iff the whole lane is zero, with no carry ever crossing a lane
// boundary. Inverting under the 0x80 mask yields the equal-lane bits.
func matchBits(w, bcast uint64) uint64 {
	x := w ^ bcast
	t := ((x & ^uint64(hiBits)) + ^uint64(hiBits)) | x
	return ^t & hiBits
}

// packMask compresses a word holding 0x80-or-0x00 per byte lane into an
// 8-bit lane mask (bit b set iff lane b's 0x80 was set). The multiply
// gathers the eight isolated bits into the top byte: after m>>7 each lane
// contributes a single bit at position 8*lane, and the magic constant's
// terms shift each of those to a distinct position in bits 56..63 with no
// two terms ever colliding (all partial products are single bits at
// distinct offsets, so the multiply is carry-free).
func packMask(m uint64) uint8 {
	return uint8(((m >> 7) * 0x0102040810204080) >> 56)
}

// TagCandidates8 returns the candidate-lane mask for probing a key with tag
// fingerprint tag against the packed tag word w: lanes whose tag byte equals
// tag (possible match — one-in-255 false positive rate for non-matching
// keys) plus lanes whose tag byte is zero. Zero means empty or
// claimed-but-not-yet-published, and both cases must be checked against the
// key lanes: an empty lane terminates the probe chain, and a claimed lane
// may hold the probed key with its tag store still in flight. Folding the
// zero lanes in here is what makes tag filtering false-negative-free — a
// probe can skip a line only when every lane provably holds some other
// published key.
func TagCandidates8(w uint64, tag uint8) uint8 {
	m := matchBits(w, BroadcastByte(tag)) | matchBits(w, 0)
	return packMask(m)
}

// BucketCandidates7 is TagCandidates8 specialized to the bucket layout's
// in-cell metadata word: byte 0 is the control byte (publish bitmap + stash
// flag) and bytes 1..7 hold the fingerprints of payload lanes 0..6, so the
// control lane is shifted out and the result is a 7-bit mask whose bit i
// corresponds to slot lane i. The zero-byte fold carries the same
// false-negative-free contract as TagCandidates8: a lane whose fingerprint
// byte is still zero (unpublished, or slot word CASed but the metadata OR
// not yet visible) stays a candidate and must be resolved against its slot
// word.
func BucketCandidates7(meta uint64, tag uint8) uint8 {
	return uint8(TagCandidates8(meta, tag)>>1) & 0x7f
}
