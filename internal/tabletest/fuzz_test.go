package tabletest_test

import (
	"testing"

	"dramhit/internal/dramhit"
	"dramhit/internal/folklore"
	"dramhit/internal/growt"
	"dramhit/internal/locked"
	"dramhit/internal/shardmap"
	"dramhit/internal/slotarr"
	"dramhit/internal/table"
)

// FuzzTableOps decodes an arbitrary byte string into a Put/Get/Upsert/Delete
// sequence and replays it against every synchronous table implementation and
// a reference map, requiring identical responses (values, presence, and Len)
// at every step. The resizing table joins with a tiny initial capacity so
// long inputs drive it through several incremental migrations mid-stream —
// the fuzzer is free to interleave deletes, reserved keys, and overwrites
// with the doublings, which is exactly the state space the migration
// protocol must survive.
//
// Encoding: each operation consumes 3 bytes — opcode, key, value. Keys map
// byte-for-byte onto uint64 except the top two encodings, which select the
// non-zero reserved keys (key byte 0 is table.EmptyKey already); values are
// the raw byte, so the reserved in-flight value can never be stored. The
// ≤255-key space forces collisions, overwrites, and tombstone churn.
func FuzzTableOps(f *testing.F) {
	f.Add([]byte{})
	// A little of everything, including every reserved key.
	f.Add(fuzzSeq(
		0, 1, 10, // put k1=10
		3, 1, 5, // upsert k1 += 5
		2, 1, 0, // get k1
		0, 0x00, 7, // put EmptyKey
		0, 0xff, 8, // put TombstoneKey
		0, 0xfe, 9, // put MovedKey
		4, 1, 0, // delete k1
		2, 1, 0, // get k1 (absent)
		0, 1, 3, // reinsert k1
		4, 0xfe, 0, // delete MovedKey
	))
	// Force ≥2 doublings mid-stream: 200 distinct-key puts from a 64-slot
	// start (threshold 48 → 128, then 96 → 256), with deletes and upserts
	// interleaved so migrations run over tombstones and live updates.
	dbl := []byte(nil)
	for i := 1; i <= 200; i++ {
		dbl = append(dbl, 0, byte(i), byte(i))
		if i%5 == 0 {
			dbl = append(dbl, 4, byte(i-2), 0) // delete behind the front
		}
		if i%7 == 0 {
			dbl = append(dbl, 3, byte(i-1), 2) // upsert behind the front
		}
	}
	f.Add(dbl)
	// Tombstone-churn compaction: hammer a handful of keys with
	// insert/delete cycles so same-capacity rebuilds trigger.
	churn := []byte(nil)
	for i := 0; i < 120; i++ {
		k := byte(i%8 + 1)
		churn = append(churn, 0, k, byte(i), 4, k, 0)
	}
	f.Add(churn)
	// Stash-chain overflow: forty live keys bury the one-bucket variant's
	// seven lanes under a deep stash chain, then deletes, upserts and
	// reinserts churn the chain's middle while lookups keep walking it.
	stash := []byte(nil)
	for i := 1; i <= 40; i++ {
		stash = append(stash, 0, byte(i), byte(i))
	}
	for i := 1; i+1 <= 40; i += 3 {
		stash = append(stash,
			4, byte(i), 0, // delete a chained key
			3, byte(i+1), 5, // upsert its neighbour in place
			0, byte(i), 1, // reinsert the deleted key
			2, byte(i), 0) // read it back through the chain
	}
	f.Add(stash)
	// Force shard splits mid-sequence: drive the 64-slot sharded router past
	// its 0.75 fill threshold (48 keys) with reserved keys and churn in the
	// mix, then keep mutating through the windows the splits open.
	split := fuzzSeq(
		0, 0x00, 7, // reserved keys seeded before any window
		0, 0xff, 8,
		0, 0xfe, 9,
	)
	for i := 1; i <= 160; i++ {
		split = append(split, 0, byte(i), byte(i))
		switch i % 9 {
		case 2:
			split = append(split, 4, byte(i-1), 0) // delete behind the front
		case 5:
			split = append(split, 3, byte(i), 1) // upsert the newest key
		case 7:
			split = append(split, 2, 0xfe, 0) // read a reserved key mid-window
		}
	}
	f.Add(split)

	f.Fuzz(func(t *testing.T, data []byte) {
		replayTableOps(t, data)
	})
}

// fuzzSeq builds an encoded op stream from (op, key, value) byte triples.
func fuzzSeq(b ...byte) []byte { return b }

// fuzzKey maps a key byte onto the fuzzed key space: 0 is table.EmptyKey by
// value, and the top two encodings select the other reserved keys.
func fuzzKey(b byte) uint64 {
	switch b {
	case 0xff:
		return table.TombstoneKey
	case 0xfe:
		return table.MovedKey
	}
	return uint64(b)
}

// maxFuzzOps bounds one input's replay so the fixed-capacity baselines can
// never legitimately report full (tombstoned slots are not reused, so every
// insert after a delete claims a fresh slot; 4096 slots ≫ maxFuzzOps
// claims) — any divergence between implementations is therefore a real bug.
const maxFuzzOps = 1024

func replayTableOps(t *testing.T, data []byte) {
	const slots = 1 << 12
	impls := []struct {
		name string
		m    table.Map
	}{
		// dramhit-p is exercised by the conformance suite and crosscheck; it
		// is omitted here because each fuzz execution would pay its
		// delegation goroutines' startup.
		{"folklore", folklore.New(slots)},
		{"locked", locked.New(slots)},
		{"dramhit", dramhit.New(dramhit.Config{Slots: slots}).NewSync()},
		{"growt", growt.New(64)},
		{"growt-gate", growt.New(64, growt.WithResizeMode(table.ResizeGate))},
		// The sharded router joins tiny for the same reason growt does: long
		// inputs push a 64-slot single shard through several splits (and the
		// 16-slot-chunk variant holds each window open across many ops), so
		// the fuzzer interleaves deletes, reserved keys and overwrites with
		// live cross-shard migration.
		{"shardmap", shardmap.New(64)},
		{"shardmap-chunk16", shardmap.New(64, shardmap.WithChunkSlots(16))},
		{"sharded-batched", shardmap.NewBatched(shardmap.BatchedConfig{
			Shards: 4, Table: dramhit.Config{Slots: slots},
		}).NewSync()},
		// Bucket layout, three postures: the raw engine starting at 64 slots
		// (the dbl seed drives it through at least two index rebuilds), a
		// dramhit bucket table's byte API over the same engine, and a
		// one-bucket growth-disabled engine where all but seven live keys
		// ride stash chains — the overflow path replayed against every other
		// implementation.
		{"bucket", slotarr.NewBucketMap(64)},
		{"dramhit-bucket", dramhitBytes(64)},
		{"bucket-stash", slotarr.NewBucketMapOf(slotarr.NewBucketTable(
			slotarr.BucketConfig{Buckets: 1, MaxLoad: 1 << 30}))},
	}
	ref := make(map[uint64]uint64)
	for op := 0; op+3 <= len(data) && op/3 < maxFuzzOps; op += 3 {
		k := fuzzKey(data[op+1])
		v := uint64(data[op+2])
		switch data[op] % 5 {
		case 0, 1: // put (double weight: insert pressure drives doublings)
			ref[k] = v
			for _, im := range impls {
				if !im.m.Put(k, v) {
					t.Fatalf("op %d: %s rejected Put(%#x)", op/3, im.name, k)
				}
			}
		case 2: // get
			want, wok := ref[k]
			for _, im := range impls {
				if got, ok := im.m.Get(k); ok != wok || (ok && got != want) {
					t.Fatalf("op %d: %s Get(%#x) = (%d,%v), want (%d,%v)",
						op/3, im.name, k, got, ok, want, wok)
				}
			}
		case 3: // upsert
			ref[k] += v
			for _, im := range impls {
				if got, ok := im.m.Upsert(k, v); !ok || got != ref[k] {
					t.Fatalf("op %d: %s Upsert(%#x) = (%d,%v), want %d",
						op/3, im.name, k, got, ok, ref[k])
				}
			}
		case 4: // delete
			_, want := ref[k]
			delete(ref, k)
			for _, im := range impls {
				if got := im.m.Delete(k); got != want {
					t.Fatalf("op %d: %s Delete(%#x) = %v, want %v",
						op/3, im.name, k, got, want)
				}
			}
		}
		for _, im := range impls {
			if im.m.Len() != len(ref) {
				t.Fatalf("op %d: %s Len = %d, reference %d",
					op/3, im.name, im.m.Len(), len(ref))
			}
		}
	}
	// Final sweep: every reference entry is readable everywhere.
	for k, want := range ref {
		for _, im := range impls {
			if got, ok := im.m.Get(k); !ok || got != want {
				t.Fatalf("final: %s Get(%#x) = (%d,%v), want (%d,true)",
					im.name, k, got, ok, want)
			}
		}
	}
}
