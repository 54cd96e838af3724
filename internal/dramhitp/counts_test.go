package dramhitp

import (
	"math/rand"
	"sync"
	"testing"
)

// TestCountsExactAtQuiescence: an owner's handle publishes its claims and
// deletes when its Submit or Flush returns, and a Barrier drains every owner
// the writer sent to, so once every writer has passed a Barrier, Len and the
// view's Fill equal a recount of the partitions (the view's heatmap walks
// their slot arrays), and RegionFull and the full flags agree with it. Three
// writers put, upsert and delete overlapping keys through the owners' rings.
// The first phase claims fewer slots than one partition
// holds, so no partition may read full; the second churns until the recount
// finds every slot claimed, so every partition must read full and have its
// flag raised. CI repeats it at -cpu 4.
func TestCountsExactAtQuiescence(t *testing.T) {
	tb := New(Config{Slots: 1 << 10, Producers: 3, Consumers: 2, PartitionsPerConsumer: 2})
	tb.Start()
	defer tb.Close()
	ws := make([]*WriteHandle, 3)
	for i := range ws {
		ws[i] = tb.NewWriteHandle()
	}
	if used := churnWriters(ws, 40, 100, 1); used >= tb.partSlots {
		t.Fatalf("the first phase claimed %d slots, not fewer than a partition's %d", used, tb.partSlots)
	}
	checkPartitionCounts(t, "roomy", tb)
	for round := int64(2); ; round++ {
		if churnWriters(ws, 1000, 600, round) == tb.total {
			break
		}
		if round == 40 {
			t.Fatal("partitions never filled")
		}
	}
	checkPartitionCounts(t, "full", tb)
	for _, w := range ws {
		w.Close()
	}
}

// churnWriters has every writer, on its own goroutine, send ops random Puts,
// Upserts and Deletes of keys 1..keys and then pass a Barrier. It returns the
// slots the partitions then hold claimed, live or tombstoned, by recount.
func churnWriters(ws []*WriteHandle, ops, keys int, seed int64) uint64 {
	var wg sync.WaitGroup
	for g, w := range ws {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*100 + int64(g)))
			for range ops {
				key := 1 + uint64(rng.Intn(keys))
				switch rng.Intn(4) {
				case 0, 1:
					w.Put(key, 1)
				case 2:
					w.Upsert(key, 1)
				default:
					w.Delete(key)
				}
			}
			w.Barrier()
		}()
	}
	wg.Wait()
	hm := ws[0].t.view.Heatmap()
	return uint64(hm.Gauges["live"] + hm.Gauges["tombstones"])
}

// checkPartitionCounts compares Len and Fill with the heatmap's recount of
// the partitions, and RegionFull and the full flags with what that recount
// implies: none full while fewer slots are claimed than one partition holds,
// all full once every slot is.
func checkPartitionCounts(t *testing.T, name string, tb *Table) {
	t.Helper()
	hm := tb.view.Heatmap()
	live, used := uint64(hm.Gauges["live"]), uint64(hm.Gauges["live"]+hm.Gauges["tombstones"])
	if tb.Len() != int(live) {
		t.Errorf("%s: Len %d, the partitions hold %d live entries", name, tb.Len(), live)
	}
	if want := float64(used) / float64(tb.total); tb.view.Fill() != want {
		t.Errorf("%s: Fill %v, the partitions are %v claimed", name, tb.view.Fill(), want)
	}
	if used >= tb.partSlots && used < tb.total {
		t.Fatalf("%s: %d of %d slots claimed: the recount cannot say which partitions are full", name, used, tb.total)
	}
	want := used == tb.total
	for p := range tb.parts {
		if full, flag := tb.view.RegionFull(p), tb.parts[p].full.Load(); full != want || flag != want {
			t.Errorf("%s: partition %d reads full %v with flag %v, %d of %d slots claimed", name, p, full, flag, used, tb.total)
		}
	}
}
