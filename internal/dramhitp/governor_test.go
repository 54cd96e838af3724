package dramhitp

import (
	"math/rand"
	"testing"

	"dramhit/internal/table"
	"dramhit/internal/workload"
)

// loadPair builds two identically-loaded tables, one ungoverned and one with
// the given governor mode, and returns them started. Callers must Close both.
func loadPair(t *testing.T, slots uint64, mode table.GovernorMode, keys []uint64) (pipe, gov *Table) {
	t.Helper()
	build := func(m table.GovernorMode) *Table {
		tb := New(Config{Slots: slots, Producers: 1, Consumers: 2, Governor: m})
		tb.Start()
		w := tb.NewWriteHandle()
		for i, k := range keys {
			w.Put(k, uint64(i)+1)
		}
		w.Barrier()
		w.Close()
		return tb
	}
	return build(table.GovernorOff), build(mode)
}

// TestReadDirectEquivalence is the direct≡pipelined property for the
// partitioned read path: a forced-direct table must answer every lookup —
// hits, misses, reserved keys — identically to the ungoverned pipeline,
// per ID, over randomized batched streams with random flush boundaries.
func TestReadDirectEquivalence(t *testing.T) {
	const slots = 1 << 10
	keys := workload.UniqueKeys(31, slots/2)
	pipeT, dirT := loadPair(t, slots, table.GovernorDirect, keys)
	defer pipeT.Close()
	defer dirT.Close()

	rp, rd := pipeT.NewReadHandle(), dirT.NewReadHandle()
	if d, _, pinned, ok := dirT.GovernorState(); !ok || !pinned || !d.Direct {
		t.Fatal("GovernorDirect table's readers are not pinned direct")
	}
	rng := rand.New(rand.NewSource(7))
	collect := func(r *ReadHandle, reqs []table.Request) map[uint64]table.Response {
		out := make(map[uint64]table.Response, len(reqs))
		resps := make([]table.Response, 16)
		rem := reqs
		for len(rem) > 0 {
			n, nr := r.Submit(rem, resps)
			for _, resp := range resps[:nr] {
				out[resp.ID] = resp
			}
			rem = rem[n:]
		}
		for {
			nr, done := r.Flush(resps)
			for _, resp := range resps[:nr] {
				out[resp.ID] = resp
			}
			if done {
				return out
			}
		}
	}
	for round := 0; round < 50; round++ {
		reqs := make([]table.Request, 1+rng.Intn(200))
		for i := range reqs {
			var k uint64
			switch rng.Intn(10) {
			case 0:
				k = table.EmptyKey
			case 1:
				k = table.TombstoneKey
			case 2:
				k = uint64(rng.Int63()) | 1<<40 // almost surely absent
			default:
				k = keys[rng.Intn(len(keys))]
			}
			reqs[i] = table.Request{Op: table.Get, Key: k, ID: uint64(round)<<32 | uint64(i)}
		}
		mp, md := collect(rp, reqs), collect(rd, reqs)
		if len(mp) != len(md) {
			t.Fatalf("round %d: pipelined %d responses, direct %d", round, len(mp), len(md))
		}
		for id, p := range mp {
			if d, ok := md[id]; !ok || d != p {
				t.Fatalf("round %d ID %d: pipelined %+v direct %+v", round, id, p, md[id])
			}
		}
	}
	// The direct reader shares the pipelined reader's hit accounting.
	if rp.Stats().Gets != rd.Stats().Gets || rp.Stats().Hits != rd.Stats().Hits {
		t.Fatalf("read accounting diverged: pipelined (%d,%d) direct (%d,%d)",
			rp.Stats().Gets, rp.Stats().Hits, rd.Stats().Gets, rd.Stats().Hits)
	}
}

// TestReadGovernorWiring pins the partitioned config contract: off is the
// zero value and attaches nothing; auto starts pipelined; direct starts
// pinned. (The capability clamps are the view's: dramhit's
// TestGovernorConfigWiring.)
func TestReadGovernorWiring(t *testing.T) {
	off := New(Config{Slots: 64})
	if _, _, _, ok := off.GovernorState(); ok {
		t.Fatal("GovernorState ok on an ungoverned table")
	}
	auto := New(Config{Slots: 64, Governor: table.GovernorAuto})
	if d, _, _, ok := auto.GovernorState(); !ok || d.Direct {
		t.Fatalf("auto initial state: ok=%v d=%v", ok, d)
	}
	dir := New(Config{Slots: 64, Governor: table.GovernorDirect})
	if d, _, pinned, ok := dir.GovernorState(); !ok || !pinned || !d.Direct {
		t.Fatalf("direct state: ok=%v pinned=%v d=%v", ok, pinned, d)
	}
}

// TestReadDirectZeroAlloc pins the direct read path's zero-allocation
// guarantee.
func TestReadDirectZeroAlloc(t *testing.T) {
	tb := New(Config{Slots: 1 << 10, Producers: 1, Consumers: 1, Governor: table.GovernorDirect})
	tb.Start()
	defer tb.Close()
	w := tb.NewWriteHandle()
	keys := workload.UniqueKeys(3, 256)
	for i, k := range keys {
		w.Put(k, uint64(i)+1)
	}
	w.Barrier()
	w.Close()
	r := tb.NewReadHandle()
	reqs := make([]table.Request, len(keys))
	for i, k := range keys {
		reqs[i] = table.Request{Op: table.Get, Key: k, ID: uint64(i)}
	}
	resps := make([]table.Response, len(keys))
	if avg := testing.AllocsPerRun(100, func() {
		rem := reqs
		for len(rem) > 0 {
			n, nr := r.Submit(rem, resps)
			rem = rem[n:]
			_ = nr
		}
	}); avg != 0 {
		t.Fatalf("direct read Submit allocates %.1f per run, want 0", avg)
	}
}
