package dramhit

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"dramhit/internal/arena"
	"dramhit/internal/slotarr"
	"dramhit/internal/table"
)

// TestByteRingCompactsAcrossRegions: three bucket regions share one arena of
// 512-byte segments, and a handle overwrites 3000 keys ten times over through
// SubmitBytes batches. The compaction pass a batch's write starts looks each
// victim record up in the region its key routes to: passes move records, the
// arena stays within 4/3 of its live bytes plus 64 segments (and one segment
// more) once the pass has ended, every region audits clean, and every key
// reads its last value.
func TestByteRingCompactsAcrossRegions(t *testing.T) {
	const seg, nreg, keys, rounds, batch = 512, 3, 3000, 10, 32
	ar := arena.New(arena.WithSegmentBytes(seg))
	r := Regions{Worker: "compact-h", Buckets: slotarr.NewBucketRegions(nreg, slotarr.BucketConfig{Buckets: 512, Arena: ar})}
	tbl := NewView(Config{Slots: nreg * 512 * slotarr.BucketLanes, Layout: table.LayoutBucket}, r)
	h := tbl.NewHandle()
	h.OnByteComplete(func(c ByteCompletion) {
		if c.Failed {
			t.Fatalf("request %d failed", c.ID)
		}
	})
	rng := rand.New(rand.NewSource(3))
	last := map[int][]byte{}
	for op := 0; op < keys*rounds; op++ {
		k := rng.Intn(keys)
		v := []byte(fmt.Sprintf("value-%04d-%06d", k, op))
		last[k] = v
		h.SubmitBytes(table.Put, uint64(op), []byte(fmt.Sprintf("key-%04d", k)), v)
		if op%batch == batch-1 {
			h.FlushBytes()
			ar.WaitPass()
			var used, dead uint64
			for _, s := range ar.SegmentStats() {
				used, dead = used+s.Used, dead+min(s.Dead, s.Used)
			}
			if 3*used > 4*(used-dead)+3*65*seg {
				t.Fatalf("op %d: %d bytes used, %d dead", op, used, dead)
			}
		}
	}
	h.FlushBytes()
	ar.WaitPass()
	if cs := ar.CompactStats(); cs.Passes == 0 || cs.Moved == 0 || cs.Unlinked == 0 {
		t.Fatalf("compaction %+v: want passes that moved records and unlinked segments", cs)
	}
	for i, b := range r.Buckets {
		if err := b.Audit(); err != nil {
			t.Fatalf("region %d: %v", i, err)
		}
	}
	for k, want := range last {
		if v, ok := h.GetBytes([]byte(fmt.Sprintf("key-%04d", k))); !ok || !bytes.Equal(v, want) {
			t.Fatalf("key %d reads %q, %v; want %q", k, v, ok, want)
		}
	}
}
