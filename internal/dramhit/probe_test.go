package dramhit

import (
	"math/rand"
	"sync"
	"testing"

	"dramhit/internal/table"
	"dramhit/internal/workload"
)

// TestKeyLinesAreLines pins the flat probe's line accounting: a probe loads
// the key lanes of every line it visits, so on a table of more than one line,
// driven by one handle with no reserved keys (a side slot counts a Line and
// loads no key line), KeyLines equals Lines under every execution model. The
// stream mixes all four ops over more keys than the small table holds, so
// reprobes, tombstones, wraps and table-full failures all occur.
func TestKeyLinesAreLines(t *testing.T) {
	for _, c := range []struct {
		name string
		cfg  Config
	}{
		{"swar", Config{}},
		{"scalar", Config{ProbeKernel: table.KernelScalar}},
		{"window4", Config{PrefetchWindow: 4}},
		{"direct", Config{Governor: table.GovernorDirect}},
	} {
		for _, slots := range []uint64{37, 1024} {
			cfg := c.cfg
			cfg.Slots = slots
			h := New(cfg).NewHandle()
			rng := rand.New(rand.NewSource(int64(slots)))
			reqs := make([]table.Request, 0, 48)
			resps := make([]table.Response, 64)
			for i := 0; i < 20000; i++ {
				reqs = append(reqs, table.Request{
					Op: table.Op(rng.Intn(4)), Key: uint64(rng.Intn(int(slots)*3/2)) + 1,
					Value: 1, ID: uint64(i),
				})
				if len(reqs) < cap(reqs) {
					continue
				}
				for rem := reqs; len(rem) > 0; {
					n, _ := h.Submit(rem, resps)
					rem = rem[n:]
				}
				reqs = reqs[:0]
			}
			for done := false; !done; {
				_, done = h.Flush(resps)
			}
			if s := h.Stats(); s.KeyLines != s.Lines || s.Reprobes == 0 || s.TagSkips != 0 {
				t.Errorf("%s, %d slots: KeyLines %d, Lines %d, Reprobes %d, TagSkips %d",
					c.name, slots, s.KeyLines, s.Lines, s.Reprobes, s.TagSkips)
			}
		}
	}
}

// TestClaimRaces hammers the claim path under -race: many handles race
// Upserts over a hot key set. A dropped upsert would show up as a short
// count, a double claim as a duplicate slot.
func TestClaimRaces(t *testing.T) {
	tbl := New(Config{Slots: 4096})
	keys := workload.UniqueKeys(8, 64)
	const goroutines = 8
	const rounds = 150
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := tbl.NewHandle()
			for r := 0; r < rounds; r++ {
				h.UpsertBatch(keys, 1)
			}
		}()
	}
	wg.Wait()

	s := tbl.NewSync()
	for _, k := range keys {
		if v, ok := s.Get(k); !ok || v != goroutines*rounds {
			t.Fatalf("key %d: count (%d, %v), want %d", k, v, ok, goroutines*rounds)
		}
	}
	seen := make(map[uint64]uint64)
	for i := uint64(0); i < uint64(tbl.Cap()); i++ {
		k := tbl.regs[0].arr.Key(i)
		if k == table.EmptyKey || k == table.TombstoneKey {
			continue
		}
		if prev, dup := seen[k]; dup {
			t.Fatalf("key %d claimed in slots %d and %d", k, prev, i)
		}
		seen[k] = i
	}
	if len(seen) != len(keys) {
		t.Fatalf("table holds %d live keys, want %d", len(seen), len(keys))
	}
}

// TestMixedOpRaces races all four ops across handles on one table; the
// structural invariants must hold whatever interleaving the scheduler picks
// (responses are not comparable across interleavings, so the assertions are
// invariant-based): no key claimed twice, and the live counter matches a
// scan.
func TestMixedOpRaces(t *testing.T) {
	tbl := New(Config{Slots: 1 << 12})
	keys := workload.UniqueKeys(9, 256)
	const goroutines = 6
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			h := tbl.NewHandle()
			rng := rand.New(rand.NewSource(int64(g)))
			reqs := make([]table.Request, 16)
			resps := make([]table.Response, 64)
			for r := 0; r < 500; r++ {
				for j := range reqs {
					reqs[j] = table.Request{
						Op:    table.Op(rng.Intn(4)),
						Key:   keys[rng.Intn(len(keys))],
						Value: 1,
						ID:    uint64(j),
					}
				}
				rem := reqs[:]
				for len(rem) > 0 {
					n, _ := h.Submit(rem, resps)
					rem = rem[n:]
				}
			}
			for {
				if _, done := h.Flush(resps); done {
					break
				}
			}
		}(g)
	}
	wg.Wait()

	live := 0
	seen := make(map[uint64]bool)
	for i := uint64(0); i < uint64(tbl.Cap()); i++ {
		k := tbl.regs[0].arr.Key(i)
		if k == table.EmptyKey || k == table.TombstoneKey {
			continue
		}
		if seen[k] {
			t.Fatalf("key %d claimed twice", k)
		}
		seen[k] = true
		live++
	}
	if got := int(tbl.live.Load()); got != live {
		t.Fatalf("live counter %d, scan found %d", got, live)
	}
}
