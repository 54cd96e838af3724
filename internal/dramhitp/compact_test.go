package dramhitp

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"testing"

	"dramhit/internal/arena"
	"dramhit/internal/slotarr"
)

// TestBytesCompactsOncePerRecord: a 4-partition byte table over an arena of
// 512-byte segments, its keys overwritten eight times over, runs compaction
// passes. Each record a pass scanned cost one lookup, in the partition its key
// routes to, not one per partition; every partition audits clean, and every
// key reads its last value.
func TestBytesCompactsOncePerRecord(t *testing.T) {
	const seg, parts, keys, rounds = 512, 4, 3000, 8
	var ts []*slotarr.BucketTable
	old := newRegions
	newRegions = func(n int, cfg slotarr.BucketConfig) []*slotarr.BucketTable {
		cfg.Arena = arena.New(arena.WithSegmentBytes(seg))
		ts = old(n, cfg)
		return ts
	}
	t.Cleanup(func() { newRegions = old })
	tb := NewBytes(BytesConfig{Slots: 4096, Partitions: parts})
	h := tb.NewHandle()
	ar := ts[0].Arena()
	rng := rand.New(rand.NewPCG(5, 6))
	last := map[int][]byte{}
	for op := 0; op < keys*rounds; op++ {
		k := rng.IntN(keys)
		v := []byte(fmt.Sprintf("value-%04d-%06d", k, op))
		if _, ok := h.PutBytes([]byte(fmt.Sprintf("key-%04d", k)), v); !ok {
			t.Fatalf("op %d refused", op)
		}
		last[k] = v
		ar.WaitPass() // the pass this write started, before the next write
	}
	cs := ar.CompactStats()
	if cs.Passes == 0 || cs.Moved == 0 || cs.Unlinked == 0 {
		t.Fatalf("compaction %+v: want passes that moved records and unlinked segments", cs)
	}
	var probes uint64
	for i, b := range ts {
		if b.CompactProbes() == 0 {
			t.Errorf("partition %d: no compaction lookups", i)
		}
		probes += b.CompactProbes()
		if err := b.Audit(); err != nil {
			t.Fatalf("partition %d: %v", i, err)
		}
	}
	if probes != cs.Records {
		t.Fatalf("%d lookups for %d scanned records", probes, cs.Records)
	}
	for k, want := range last {
		if v, ok := h.GetBytes([]byte(fmt.Sprintf("key-%04d", k))); !ok || !bytes.Equal(v, want) {
			t.Fatalf("key %d reads %q, %v; want %q", k, v, ok, want)
		}
	}
}
