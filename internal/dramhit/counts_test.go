package dramhit

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"dramhit/internal/table"
)

// TestCountsExactAtQuiescence: a handle counts its claims and deletes in its
// own fill and publishes them when Submit or Flush returns, so once every
// handle has returned, Len, Fill and RegionFull must equal a recount of the
// slot arrays, whatever the handles raced over. Two to four handles put,
// re-put, upsert and delete overlapping keys through the ring and in direct
// mode, over one region and three; the first phase leaves every region with
// room, the second churns on until tombstones fill regions up and inserts
// fail. CI repeats it at -cpu 4.
func TestCountsExactAtQuiescence(t *testing.T) {
	for _, gov := range []table.GovernorMode{table.GovernorOff, table.GovernorDirect} {
		for _, nreg := range []int{1, 3} {
			for _, handles := range []int{2, 4} {
				name := fmt.Sprintf("governor=%v/regions=%d/handles=%d", gov, nreg, handles)
				tbl := newRegionTable(Config{Slots: 768, PrefetchWindow: 8, Governor: gov}, nreg)
				hs := make([]*Handle, handles)
				for i := range hs {
					hs[i] = tbl.NewHandle()
				}
				churn(hs, 4, 200, 1)
				full := checkCounts(t, name+"/roomy", tbl)
				if full != 0 {
					t.Fatalf("%s: %d regions full after the first phase; it should leave room", name, full)
				}
				churn(hs, 150, 600, 2)
				if full = checkCounts(t, name+"/full", tbl); full == 0 {
					t.Fatalf("%s: no region full after the second phase; RegionFull went unchecked", name)
				}
			}
		}
	}
}

// churn has every handle, on its own goroutine, submit batches batches of
// 1-32 random Puts, Upserts and Deletes of keys 1..keys (so handles race on
// the same keys), flushing after some batches and at the end.
func churn(hs []*Handle, batches, keys int, seed int64) {
	ops := [...]table.Op{table.Put, table.Put, table.Upsert, table.Delete}
	var wg sync.WaitGroup
	for g, h := range hs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*100 + int64(g)))
			reqs := make([]table.Request, 0, 32)
			for range batches {
				reqs = reqs[:0]
				for range 1 + rng.Intn(32) {
					reqs = append(reqs, table.Request{Op: ops[rng.Intn(len(ops))], Key: 1 + uint64(rng.Intn(keys)), Value: 1})
				}
				for rem := reqs; len(rem) > 0; {
					n, _ := h.Submit(rem, nil)
					rem = rem[n:]
				}
				if rng.Intn(4) == 0 {
					h.Flush(nil) // no Gets, so one call drains the ring
				}
			}
			h.Flush(nil)
		}()
	}
	wg.Wait()
}

// checkCounts compares each region's published counters, and Len, Fill and
// RegionFull, with a recount of its slot array, and returns how many regions
// the recount finds full.
func checkCounts(t *testing.T, name string, tbl *Table) (full int) {
	t.Helper()
	var used, live int64
	for r := range tbl.regs {
		reg := &tbl.regs[r]
		var rused, rlive int64
		for i := range reg.arr.Size() {
			switch reg.arr.Key(i) {
			case table.EmptyKey:
			case table.TombstoneKey:
				rused++
			default:
				rused++
				rlive++
			}
		}
		if reg.used.Load() != rused || reg.live.Load() != rlive {
			t.Errorf("%s: region %d counts used %d live %d, its array holds %d and %d", name, r, reg.used.Load(), reg.live.Load(), rused, rlive)
		}
		if isFull := uint64(rused) >= tbl.rslots; tbl.RegionFull(r) != isFull {
			t.Errorf("%s: RegionFull(%d) = %v with %d of %d slots claimed", name, r, tbl.RegionFull(r), rused, tbl.rslots)
		} else if isFull {
			full++
		}
		used += rused
		live += rlive
	}
	if tbl.Len() != int(live) {
		t.Errorf("%s: Len %d, the arrays hold %d live entries", name, tbl.Len(), live)
	}
	if want := float64(used) / float64(tbl.Cap()); tbl.Fill() != want {
		t.Errorf("%s: Fill %v, the arrays are %v claimed", name, tbl.Fill(), want)
	}
	return full
}
