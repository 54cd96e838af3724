package simd

import (
	"testing"
	"testing/quick"
)

func TestProbeLineOutcomes(t *testing.T) {
	const empty = uint64(0)
	cases := []struct {
		name     string
		lanes    [LaneCount]uint64
		key      uint64
		cidx     int
		wantRes  ProbeResult
		wantLane int
	}{
		{"key in lane 0", [4]uint64{5, 1, 2, 3}, 5, 0, HitKey, 0},
		{"key in lane 3", [4]uint64{1, 2, 3, 5}, 5, 0, HitKey, 3},
		{"empty first", [4]uint64{empty, 5, 1, 2}, 5, 0, HitEmpty, 0},
		{"key before empty", [4]uint64{5, empty, 1, 2}, 5, 0, HitKey, 0},
		{"tombstones skipped, then empty", [4]uint64{^uint64(0), ^uint64(0), empty, 1}, 5, 0, HitEmpty, 2},
		{"full line of others", [4]uint64{1, 2, 3, 4}, 5, 0, Miss, 0},
		{"cidx masks early match", [4]uint64{5, 1, 2, 5}, 5, 1, HitKey, 3},
		{"cidx masks early empty", [4]uint64{empty, 1, 2, empty}, 5, 2, HitEmpty, 3},
		{"cidx 3 no match", [4]uint64{5, 5, 5, 1}, 5, 3, Miss, 0},
	}
	for _, c := range cases {
		l := c.lanes
		lane, res := ProbeLine4(l[0], l[1], l[2], l[3], c.key, empty, c.cidx)
		if res != c.wantRes || (res != Miss && lane != c.wantLane) {
			t.Errorf("%s: got (lane %d, res %d), want (lane %d, res %d)",
				c.name, lane, res, c.wantLane, c.wantRes)
		}
	}
}

func TestProbeLineMatchesScalarReference(t *testing.T) {
	// Property: ProbeLine4 agrees with a straightforward scalar loop.
	const empty = uint64(99)
	prop := func(l0, l1, l2, l3, key uint64, cidxRaw uint8) bool {
		lanes := [LaneCount]uint64{l0 % 4, l1 % 4, l2 % 4, l3 % 4}
		k := key % 4
		cidx := int(cidxRaw) % LaneCount
		gotLane, gotRes := ProbeLine4(lanes[0], lanes[1], lanes[2], lanes[3], k, empty, cidx)
		// Scalar reference.
		for l := cidx; l < LaneCount; l++ {
			if lanes[l] == k {
				return gotRes == HitKey && gotLane == l
			}
			if lanes[l] == empty {
				return gotRes == HitEmpty && gotLane == l
			}
		}
		return gotRes == Miss
		// note: lanes are in 0..3 and empty is 99, so HitEmpty only occurs
		// if we inject it — extend below.
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
	// Same property with empties injected.
	prop2 := func(l0, l1, l2, l3, key uint64, cidxRaw uint8) bool {
		pick := func(v uint64) uint64 {
			if v%5 == 0 {
				return empty
			}
			return v % 4
		}
		lanes := [LaneCount]uint64{pick(l0), pick(l1), pick(l2), pick(l3)}
		k := key % 4
		cidx := int(cidxRaw) % LaneCount
		gotLane, gotRes := ProbeLine4(lanes[0], lanes[1], lanes[2], lanes[3], k, empty, cidx)
		for l := cidx; l < LaneCount; l++ {
			if lanes[l] == k {
				return gotRes == HitKey && gotLane == l
			}
			if lanes[l] == empty {
				return gotRes == HitEmpty && gotLane == l
			}
		}
		return gotRes == Miss
	}
	if err := quick.Check(prop2, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// refMatch8 is the obvious byte-at-a-time reference the SWAR kernel must
// agree with.
func refMatch8(w uint64, b uint8) uint8 {
	var m uint8
	for lane := 0; lane < TagLanes; lane++ {
		if uint8(w>>(8*lane)) == b {
			m |= 1 << lane
		}
	}
	return m
}

func TestBroadcastByte(t *testing.T) {
	cases := []struct {
		b    uint8
		want uint64
	}{
		{0, 0}, {1, 0x0101010101010101}, {0x80, 0x8080808080808080},
		{0xff, 0xffffffffffffffff}, {0xab, 0xabababababababab},
	}
	for _, c := range cases {
		if got := BroadcastByte(c.b); got != c.want {
			t.Errorf("BroadcastByte(%#x) = %#x, want %#x", c.b, got, c.want)
		}
	}
}

// matchBytes8 is the exact byte-equality lane mask TagCandidates8 and
// BucketCandidates7 are built from: lanes of w equal to b.
func matchBytes8(w uint64, b uint8) uint8 {
	return packMask(matchBits(w, BroadcastByte(b)))
}

func TestMatchBytes8BorrowCases(t *testing.T) {
	// The cases the naive haszero form gets wrong: a lane holding 1 (or any
	// small value) adjacent to lanes that would generate a borrow/carry in
	// the subtract-based formulation.
	cases := []struct {
		w    uint64
		b    uint8
		want uint8
	}{
		{0x0000000000000001, 1, 0b00000001},
		{0x0100000000000000, 1, 0b10000000},
		{0x0101010101010101, 1, 0b11111111},
		{0x0001000100010001, 1, 0b01010101},
		{0x0100010001000100, 0, 0b01010101},
		{0xff01ff01ff01ff01, 1, 0b01010101},
		{0x0201020102010201, 1, 0b01010101},
		{0x8000800080008000, 0x80, 0b10101010},
		{0xffffffffffffffff, 0xff, 0b11111111},
		{0, 0, 0b11111111},
		{0, 1, 0},
	}
	for _, c := range cases {
		if got := matchBytes8(c.w, c.b); got != c.want {
			t.Errorf("matchBytes8(%#016x, %#x) = %08b, want %08b", c.w, c.b, got, c.want)
		}
	}
}

func TestMatchBytes8MatchesReference(t *testing.T) {
	f := func(w uint64, b uint8) bool {
		return matchBytes8(w, b) == refMatch8(w, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20000}); err != nil {
		t.Error(err)
	}
	// Bias toward near-miss lanes (values within ±1 of the target byte),
	// where carry/borrow bugs live.
	g := func(raw [TagLanes]uint8, b uint8) bool {
		var w uint64
		for lane, r := range raw {
			v := b + uint8(int(r%5)-2) // b-2 .. b+2
			w |= uint64(v) << (8 * lane)
		}
		return matchBytes8(w, b) == refMatch8(w, b)
	}
	if err := quick.Check(g, &quick.Config{MaxCount: 20000}); err != nil {
		t.Error(err)
	}
}

func TestZeroBytes8(t *testing.T) {
	f := func(w uint64) bool {
		return packMask(matchBits(w, 0)) == refMatch8(w, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20000}); err != nil {
		t.Error(err)
	}
}

func TestTagCandidates8(t *testing.T) {
	// Candidates = matching-tag lanes OR zero lanes, and tag 0 never occurs
	// as a published value so the union is well defined.
	f := func(w uint64, tag uint8) bool {
		if tag == 0 {
			tag = 1
		}
		return TagCandidates8(w, tag) == refMatch8(w, tag)|refMatch8(w, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20000}); err != nil {
		t.Error(err)
	}
	// False-negative freedom: a lane holding the probe's tag, or zero, is
	// always a candidate — spot checks on the structural cases.
	if m := TagCandidates8(0, 7); m != 0xff {
		t.Errorf("all-zero word: candidates %08b, want all", m)
	}
	if m := TagCandidates8(BroadcastByte(7), 7); m != 0xff {
		t.Errorf("all-matching word: candidates %08b, want all", m)
	}
	if m := TagCandidates8(BroadcastByte(9), 7); m != 0 {
		t.Errorf("all-other word: candidates %08b, want none", m)
	}
	if m := TagCandidates8(0x0900000000000007, 7); m != 0b11111111&^0b10000000|0b00000001 {
		// lane 0 matches (7), lanes 1..6 are zero, lane 7 holds 9.
		t.Errorf("mixed word: candidates %08b", m)
	}
}

func BenchmarkTagCandidates8(b *testing.B) {
	var sink uint8
	w := uint64(0x0709000007000009)
	for i := 0; i < b.N; i++ {
		sink |= TagCandidates8(w+uint64(i), uint8(i)|1)
	}
	_ = sink
}

func BenchmarkProbeLine(b *testing.B) {
	var sink int
	for i := 0; i < b.N; i++ {
		lane, _ := ProbeLine4(1, 2, 3, 4, uint64(i&7), 0, i&3)
		sink += lane
	}
	_ = sink
}
