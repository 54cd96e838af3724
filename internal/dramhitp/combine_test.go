package dramhitp

import (
	"math/rand"
	"sync"
	"testing"

	"dramhit/internal/table"
)

func newCombineTable(n uint64) *Table {
	t := New(Config{
		Slots:                 n,
		Producers:             4,
		Consumers:             2,
		PartitionsPerConsumer: 2,
	})
	t.Start()
	return t
}

// TestPCombineWriteCoalescing folds a duplicate-heavy upsert stream and
// demands the exact per-key sums an uncombined table would hold, plus
// evidence the folds actually happened (Combined counter, fewer delegated
// messages is implied by it).
func TestPCombineWriteCoalescing(t *testing.T) {
	tbl := newCombineTable(4096)
	defer tbl.Close()
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
	if combined == 0 {
		t.Fatal("expected folded upserts on a 64-key stream")
	}
	r := tbl.NewReadHandle()
	for k, sum := range want {
		if v, ok := r.Get(k); !ok || v != sum {
			t.Fatalf("key %d: got (%d,%v) want (%d,true)", k, v, ok, sum)
		}
	}
}

// TestPCombineWriteOrdering pins the per-key order contract around held
// entries: a Put or Delete of a held key releases the held delta first, so
// the partition owner applies the two in submission order.
func TestPCombineWriteOrdering(t *testing.T) {
	tbl := newCombineTable(1024)
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

// TestPCombineConcurrentWritersReaders runs coalescing writers against
// pipelined readers under the race detector, then verifies exact
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
