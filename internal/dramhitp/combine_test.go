package dramhitp

import (
	"math/rand"
	"sync"
	"testing"

	"dramhit/internal/table"
	"dramhit/internal/workload"
)

func newCombineTable(n uint64, c table.Combining) *Table {
	t := New(Config{
		Slots:                 n,
		Producers:             4,
		Consumers:             2,
		PartitionsPerConsumer: 2,
		Combining:             c,
	})
	t.Start()
	return t
}

// TestPCombineConfigWiring pins the knob: combining defaults on, off is
// selectable, and write handles follow it (the read side's wiring is
// dramhit's TestCombineConfigWiring; TestPCombineReadEquivalenceProperty
// shows an off-table's readers piggyback nothing).
func TestPCombineConfigWiring(t *testing.T) {
	on := newCombineTable(1024, table.CombineOn)
	defer on.Close()
	off := newCombineTable(1024, table.CombineOff)
	defer off.Close()
	if on.Combining() != table.CombineOn || off.Combining() != table.CombineOff {
		t.Fatalf("combining wiring: on=%v off=%v", on.Combining(), off.Combining())
	}
	if New(Config{Slots: 64, Producers: 1, Consumers: 1}).Combining() != table.CombineOn {
		t.Fatal("zero-value Config must default to CombineOn")
	}
	wOn, wOff := on.NewWriteHandle(), off.NewWriteHandle()
	if !wOn.coalesce || wOff.coalesce {
		t.Fatalf("write coalesce wiring: on=%v off=%v", wOn.coalesce, wOff.coalesce)
	}
	wOn.Close()
	wOff.Close()
}

// TestPCombineWriteCoalescing folds a duplicate-heavy upsert stream and
// demands the exact per-key sums an uncombined table would hold, plus
// evidence the folds actually happened (Combined counter, fewer delegated
// messages is implied by it).
func TestPCombineWriteCoalescing(t *testing.T) {
	for _, mode := range []table.Combining{table.CombineOn, table.CombineOff} {
		tbl := newCombineTable(4096, mode)
		w := tbl.NewWriteHandle()
		rng := rand.New(rand.NewSource(7))
		want := map[uint64]uint64{}
		for i := 0; i < 20000; i++ {
			k := uint64(1 + rng.Intn(64)) // dense duplication: 64 hot keys
			w.Upsert(k, k)
			want[k] += k
		}
		w.Barrier()
		combined := w.Combined
		w.Close()
		if mode == table.CombineOn && combined == 0 {
			t.Fatal("combining on: expected folded upserts on a 64-key stream")
		}
		if mode == table.CombineOff && combined != 0 {
			t.Fatalf("combining off: Combined = %d, want 0", combined)
		}
		r := tbl.NewReadHandle()
		for k, sum := range want {
			if v, ok := r.Get(k); !ok || v != sum {
				t.Fatalf("mode %v key %d: got (%d,%v) want (%d,true)", mode, k, v, ok, sum)
			}
		}
		tbl.Close()
	}
}

// TestPCombineWriteOrdering pins the per-key order contract around held
// entries: a Put or Delete of a held key releases the held delta first, so
// the partition owner applies the two in submission order.
func TestPCombineWriteOrdering(t *testing.T) {
	tbl := newCombineTable(1024, table.CombineOn)
	defer tbl.Close()
	w := tbl.NewWriteHandle()
	defer w.Close()
	r := tbl.NewReadHandle()

	w.Upsert(10, 5)
	w.Put(10, 9) // releases the held 5 first; Put overwrites
	w.Barrier()
	if v, ok := r.Get(10); !ok || v != 9 {
		t.Fatalf("upsert-then-put: got (%d,%v) want (9,true)", v, ok)
	}

	w.Put(11, 9)
	w.Upsert(11, 5)
	w.Barrier()
	if v, ok := r.Get(11); !ok || v != 14 {
		t.Fatalf("put-then-upsert: got (%d,%v) want (14,true)", v, ok)
	}

	w.Upsert(12, 5)
	w.Delete(12) // releases the held 5 first; Delete tombstones it
	w.Upsert(12, 3)
	w.Barrier()
	if v, ok := r.Get(12); !ok || v != 3 {
		t.Fatalf("upsert-delete-upsert: got (%d,%v) want (3,true)", v, ok)
	}

	// A held entry for a different key is NOT flushed by Put/Delete and
	// must still land at the next barrier.
	w.Upsert(13, 7)
	w.Put(14, 1)
	w.Barrier()
	if v, ok := r.Get(13); !ok || v != 7 {
		t.Fatalf("held entry survived wrong flush: got (%d,%v) want (7,true)", v, ok)
	}
}

// drainReads pushes every request through r and returns the responses.
func drainReads(t *testing.T, r *ReadHandle, reqs []table.Request) []table.Response {
	t.Helper()
	res := make([]table.Response, len(reqs)+8)
	n := 0
	rem := reqs
	for len(rem) > 0 {
		nreq, nresp := r.Submit(rem, res[n:])
		rem = rem[nreq:]
		n += nresp
	}
	for {
		nresp, done := r.Flush(res[n:])
		n += nresp
		if done {
			break
		}
	}
	return res[:n]
}

// TestPCombineReadEquivalenceProperty drives identical duplicate-heavy Get
// streams through a combining and a non-combining table populated with the
// same contents, and demands the same answer for every request ID.
// Combining may reorder responses (piggybacked Gets complete with their
// leader) but never change them: the table is read-only during the stream,
// so every in-flight same-key Get has exactly one correct answer.
func TestPCombineReadEquivalenceProperty(t *testing.T) {
	mk := func(mode table.Combining) *Table {
		tbl := newCombineTable(4096, mode)
		w := tbl.NewWriteHandle()
		for _, k := range workload.UniqueKeys(42, 2500) {
			w.Put(k, k^7)
		}
		w.Barrier()
		w.Close()
		return tbl
	}
	onT, offT := mk(table.CombineOn), mk(table.CombineOff)
	defer onT.Close()
	defer offT.Close()

	keys := workload.UniqueKeys(42, 2500)
	miss := workload.MissKeys(42, 2500, 500)
	rng := rand.New(rand.NewSource(99))
	reqs := make([]table.Request, 6000)
	for i := range reqs {
		var k uint64
		if rng.Intn(4) == 0 {
			k = miss[rng.Intn(len(miss))]
		} else if rng.Intn(3) > 0 {
			k = keys[rng.Intn(16)] // hot set: dense in-window duplication
		} else {
			k = keys[rng.Intn(len(keys))]
		}
		reqs[i] = table.Request{Op: table.Get, Key: k, ID: uint64(i)}
	}

	rOn, rOff := onT.NewReadHandle(), offT.NewReadHandle()
	got := drainReads(t, rOn, reqs)
	want := drainReads(t, rOff, reqs)
	if len(got) != len(reqs) || len(want) != len(reqs) {
		t.Fatalf("response counts: on %d off %d want %d", len(got), len(want), len(reqs))
	}
	byID := make(map[uint64]table.Response, len(want))
	for _, resp := range want {
		byID[resp.ID] = resp
	}
	seen := make(map[uint64]bool, len(got))
	for _, resp := range got {
		if seen[resp.ID] {
			t.Fatalf("request %d answered twice", resp.ID)
		}
		seen[resp.ID] = true
		if w := byID[resp.ID]; resp != w {
			t.Fatalf("request %d diverged: on %+v off %+v", resp.ID, resp, w)
		}
	}
	if rOn.Stats().PiggybackedGets == 0 {
		t.Fatal("hot-key stream produced no piggybacked Gets")
	}
	if rOff.Stats().PiggybackedGets != 0 {
		t.Fatalf("combining off: Piggybacked = %d, want 0", rOff.Stats().PiggybackedGets)
	}
	if rOn.Stats().Gets != uint64(len(reqs)) || rOff.Stats().Gets != uint64(len(reqs)) {
		t.Fatalf("Gets must count every request once: on %d off %d want %d",
			rOn.Stats().Gets, rOff.Stats().Gets, len(reqs))
	}
	if rOn.Stats().Hits != rOff.Stats().Hits {
		t.Fatalf("hit counts diverged: on %d off %d", rOn.Stats().Hits, rOff.Stats().Hits)
	}
}

// TestPCombineReadBackpressure forces chain emission through a one-slot
// response buffer: the resolved leader must park, resume across calls, and
// still answer every piggybacked ID exactly once.
func TestPCombineReadBackpressure(t *testing.T) {
	tbl := newCombineTable(1024, table.CombineOn)
	defer tbl.Close()
	w := tbl.NewWriteHandle()
	w.Put(77, 42)
	w.Barrier()
	w.Close()

	r := tbl.NewReadHandle()
	reqs := make([]table.Request, 8)
	for i := range reqs {
		reqs[i] = table.Request{Op: table.Get, Key: 77, ID: uint64(i)}
	}
	one := make([]table.Response, 1)
	var got []table.Response
	rem := reqs
	for len(rem) > 0 {
		nreq, nresp := r.Submit(rem, one)
		rem = rem[nreq:]
		got = append(got, one[:nresp]...)
	}
	for guard := 0; ; guard++ {
		if guard > 100 {
			t.Fatal("flush livelocked under 1-slot backpressure")
		}
		nresp, done := r.Flush(one)
		got = append(got, one[:nresp]...)
		if done {
			break
		}
	}
	if len(got) != len(reqs) {
		t.Fatalf("got %d responses, want %d", len(got), len(reqs))
	}
	seen := map[uint64]bool{}
	for _, resp := range got {
		if seen[resp.ID] {
			t.Fatalf("request %d answered twice", resp.ID)
		}
		seen[resp.ID] = true
		if !resp.Found || resp.Value != 42 {
			t.Fatalf("request %d: got (%d,%v) want (42,true)", resp.ID, resp.Value, resp.Found)
		}
	}
	if r.Stats().PiggybackedGets != 7 {
		t.Fatalf("Piggybacked = %d, want 7", r.Stats().PiggybackedGets)
	}
}

// TestPCombineConcurrentWritersReaders runs coalescing writers against
// pipelined combining readers under the race detector, then verifies exact
// per-key sums after the final barrier. Readers observe monotonic partial
// sums; exactness is asserted post-quiescence.
func TestPCombineConcurrentWritersReaders(t *testing.T) {
	tbl := New(Config{
		Slots:                 8192,
		Producers:             3,
		Consumers:             2,
		PartitionsPerConsumer: 2,
	})
	tbl.Start()
	defer tbl.Close()

	const nkeys, rounds = 64, 400
	var wg sync.WaitGroup
	for wi := 0; wi < 3; wi++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			w := tbl.NewWriteHandle()
			rng := rand.New(rand.NewSource(seed))
			for r := 0; r < rounds; r++ {
				for k := uint64(1); k <= nkeys; k++ {
					w.Upsert(k, 1)
				}
				if rng.Intn(8) == 0 {
					w.Flush()
				}
			}
			w.Barrier()
			w.Close()
		}(int64(wi + 1))
	}
	stop := make(chan struct{})
	for ri := 0; ri < 2; ri++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := tbl.NewReadHandle()
			reqs := make([]table.Request, nkeys*2)
			for i := range reqs {
				reqs[i] = table.Request{Op: table.Get, Key: uint64(1 + i%nkeys), ID: uint64(i)}
			}
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, resp := range drainReads(t, r, reqs) {
					if resp.Found && resp.Value > 3*rounds {
						t.Errorf("key sum overshot: %d > %d", resp.Value, 3*rounds)
						return
					}
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	// Detect writer completion by polling for key 1's exact final sum
	// (sums only grow, so the exact value is reached once, at the end).
	wfin := make(chan struct{})
	go func() {
		r := tbl.NewReadHandle()
		for {
			v, ok := r.Get(1)
			if ok && v == 3*rounds {
				close(wfin)
				return
			}
		}
	}()
	<-wfin
	close(stop)
	<-done

	r := tbl.NewReadHandle()
	for k := uint64(1); k <= nkeys; k++ {
		if v, ok := r.Get(k); !ok || v != 3*rounds {
			t.Fatalf("key %d: got (%d,%v) want (%d,true)", k, v, ok, 3*rounds)
		}
	}
}
