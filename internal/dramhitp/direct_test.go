package dramhitp

import (
	"math/rand"
	"testing"

	"dramhit/internal/table"
	"dramhit/internal/workload"
)

// loadPair builds two identically-loaded tables, one pipelined and one with
// the given governor mode, and returns them started. Callers must Close both.
func loadPair(t *testing.T, slots uint64, mode table.GovernorMode, keys []uint64) (pipe, other *Table) {
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
// partitioned read path: a direct table must answer every lookup — hits,
// misses, reserved keys — identically to the pipeline,
// per ID, over randomized batched streams with random flush boundaries.
func TestReadDirectEquivalence(t *testing.T) {
	const slots = 1 << 10
	keys := workload.UniqueKeys(31, slots/2)
	pipeT, dirT := loadPair(t, slots, table.GovernorDirect, keys)
	defer pipeT.Close()
	defer dirT.Close()

	rp, rd := pipeT.NewReadHandle(), dirT.NewReadHandle()
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

// TestDirectIsConstructionTime pins the partitioned config contract:
// Config.Governor reaches every ReadHandle through the read view. A
// GovernorDirect reader answers each batch in submission order and leaves
// nothing pending; a GovernorOff reader holds lookups in its prefetch window.
// "auto" is no longer a mode.
func TestDirectIsConstructionTime(t *testing.T) {
	keys := workload.UniqueKeys(23, 64)
	pipeT, dirT := loadPair(t, 1<<10, table.GovernorDirect, keys)
	defer pipeT.Close()
	defer dirT.Close()
	reqs := make([]table.Request, len(keys))
	for i, k := range keys {
		reqs[i] = table.Request{Op: table.Get, Key: k, ID: uint64(i)}
	}
	resps := make([]table.Response, len(keys))
	r := dirT.NewReadHandle()
	for start := 0; start < len(reqs); start += 5 {
		batch := reqs[start:min(start+5, len(reqs))]
		n, nr := r.Submit(batch, resps)
		if n != len(batch) || nr != len(batch) || r.h.Pending() != 0 {
			t.Fatalf("direct Submit of %d took %d, answered %d, left %d pending", len(batch), n, nr, r.h.Pending())
		}
		for i, resp := range resps[:nr] {
			if want := batch[i]; resp.ID != want.ID || !resp.Found || resp.Value != want.ID+1 {
				t.Fatalf("response %d is %+v, want ID %d value %d", i, resp, want.ID, want.ID+1)
			}
		}
	}
	p := pipeT.NewReadHandle()
	if n, nr := p.Submit(reqs[:4], resps); n != 4 || nr != 0 || p.h.Pending() != 4 {
		t.Fatalf("pipelined Submit of 4 took %d, answered %d, left %d pending", n, nr, p.h.Pending())
	}
	if m, err := table.ParseGovernor("auto"); err == nil {
		t.Fatalf(`ParseGovernor("auto") = %v, want an error`, m)
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
