package dramhitp

import (
	"math/rand"
	"testing"

	"dramhit/internal/table"
	"dramhit/internal/workload"
)

// newRingTable loads n unique keys (value k^7) into a two-partition table of
// the given size and returns it with the keys.
func newRingTable(t *testing.T, slots uint64, n, window int) (*Table, []uint64) {
	t.Helper()
	tbl := New(Config{Slots: slots, Producers: 1, Consumers: 1, PartitionsPerConsumer: 2,
		PrefetchWindow: window})
	tbl.Start()
	w := tbl.NewWriteHandle()
	keys := workload.UniqueKeys(51, n)
	for _, k := range keys {
		if !w.Put(k, k^7) {
			t.Fatalf("load: Put(%#x) denied", k)
		}
	}
	w.Barrier()
	w.Close()
	return tbl, keys
}

// TestBatchHelpersZeroAlloc pins ReadHandle.GetBatch at zero allocations on
// a warm handle, whatever the batch length.
func TestBatchHelpersZeroAlloc(t *testing.T) {
	tbl, keys := newRingTable(t, 1<<14, 5000, 0) // not a multiple of the chunk
	defer tbl.Close()
	for i := 0; i < len(keys); i += 7 {
		keys[i] = keys[0] // duplicates: same-key lookups in flight together
	}
	r := tbl.NewReadHandle()
	vals := make([]uint64, len(keys))
	found := make([]bool, len(keys))
	r.GetBatch(keys, vals, found)
	if n := testing.AllocsPerRun(5, func() { r.GetBatch(keys, vals, found) }); n != 0 {
		t.Errorf("GetBatch: %v allocs per call, want 0", n)
	}
	for i, k := range keys {
		if !found[i] || vals[i] != k^7 {
			t.Fatalf("GetBatch key %d = (%d, %v), want (%d, true)", i, vals[i], found[i], k^7)
		}
	}
}

// TestReadRingWrapInPlace is dramhit's TestRingWrapInPlace run through the
// ReadHandle over two partitions (the ring's in-place transitions themselves
// are pinned there): partitions 90% full, so most lookups cross lines (the
// tail-to-head reprobe move, inside the lookup's own partition), and
// duplicate keys a few requests apart. The first half of the requests goes
// through a one-slot response buffer, so Submit keeps returning blocked. The
// second half gets a roomy buffer, so that
// lookups complete behind a reprobe in the same back-pressure loop and the
// next one is built at a head that has moved. Every lookup is checked against
// the loaded contents, and so are the reader's Gets and Hits counters.
func TestReadRingWrapInPlace(t *testing.T) {
	const slots, loaded = 2048, 1840
	for _, window := range []int{1, 16} {
		tbl, keys := newRingTable(t, slots, loaded, window)
		absent := workload.MissKeys(51, loaded, 200)
		rng := rand.New(rand.NewSource(int64(window)))
		reqs := make([]table.Request, 8000)
		for i := range reqs {
			k := keys[rng.Intn(len(keys))]
			switch d := rng.Intn(10); {
			case i > 4 && d < 4:
				k = reqs[i-1-rng.Intn(4)].Key // a recent key: meets its twin in the ring
			case d < 6:
				k = absent[rng.Intn(len(absent))]
			}
			reqs[i] = table.Request{Op: table.Get, Key: k, ID: uint64(i)}
		}
		isLoaded := make(map[uint64]bool, len(keys))
		for _, k := range keys {
			isLoaded[k] = true
		}
		var hits uint64
		for _, r := range reqs {
			if isLoaded[r.Key] {
				hits++
			}
		}

		r := tbl.NewReadHandle()
		answered := make([]bool, len(reqs))
		check := func(resps []table.Response) {
			for _, resp := range resps {
				k := reqs[resp.ID].Key
				if answered[resp.ID] {
					t.Fatalf("window %d: request %d answered twice", window, resp.ID)
				}
				answered[resp.ID] = true
				if resp.Found != isLoaded[k] || (resp.Found && resp.Value != k^7) {
					t.Fatalf("window %d: Get %d (key %#x) = (%d, %v), loaded %v",
						window, resp.ID, k, resp.Value, resp.Found, isLoaded[k])
				}
			}
		}
		var blocked int
		for half, buf := range [][]table.Response{make([]table.Response, 1), make([]table.Response, 256)} {
			rem := reqs[half*len(reqs)/2 : (half+1)*len(reqs)/2]
			for len(rem) > 0 {
				nreq, nresp := r.Submit(rem, buf)
				check(buf[:nresp])
				if rem = rem[nreq:]; len(rem) > 0 {
					blocked++
				}
			}
		}
		var one [1]table.Response
		for {
			nresp, done := r.Flush(one[:])
			check(one[:nresp])
			if done {
				break
			}
		}
		for id, ok := range answered {
			if !ok {
				t.Fatalf("window %d: request %d never answered", window, id)
			}
		}
		rs := r.Stats()
		if blocked == 0 || rs.Reprobes == 0 {
			t.Errorf("window %d: a path went unexercised: blocked %d reprobes %d", window, blocked, rs.Reprobes)
		}
		if rs.Gets != uint64(len(reqs)) || rs.Hits != hits {
			t.Errorf("window %d: reader counted %d gets and %d hits, want %d and %d", window, rs.Gets, rs.Hits, len(reqs), hits)
		}
		tbl.Close()
	}
}
