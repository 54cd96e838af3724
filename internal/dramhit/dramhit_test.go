package dramhit

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"dramhit/internal/table"
	"dramhit/internal/tabletest"
	"dramhit/internal/workload"
)

func TestConformanceSyncAdapter(t *testing.T) {
	for _, window := range []int{1, 2, 8, 16} {
		w := window
		tabletest.Run(t, "DRAMHiT", func(n uint64) table.Map {
			return New(Config{Slots: n, PrefetchWindow: w}).NewSync()
		})
	}
}

func TestPipelineAccumulatesWindow(t *testing.T) {
	// Submitting fewer requests than the window completes nothing until
	// Flush: the pipeline is waiting for prefetches to land.
	tbl := New(Config{Slots: 1024, PrefetchWindow: 8})
	h := tbl.NewHandle()
	reqs := make([]table.Request, 7)
	for i := range reqs {
		reqs[i] = table.Request{Op: table.Put, Key: uint64(i + 100), Value: 1}
	}
	nreq, nresp := h.Submit(reqs, nil)
	if nreq != 7 || nresp != 0 {
		t.Fatalf("Submit = (%d, %d), want (7, 0)", nreq, nresp)
	}
	if h.Pending() != 7 {
		t.Fatalf("Pending = %d, want 7", h.Pending())
	}
	if got := h.Stats().Puts; got != 0 {
		t.Fatalf("completed %d puts before window filled", got)
	}
	if _, done := h.Flush(nil); !done {
		t.Fatal("Flush did not drain")
	}
	if got := h.Stats().Puts; got != 7 {
		t.Fatalf("after flush completed %d puts, want 7", got)
	}
	if h.Pending() != 0 {
		t.Fatalf("Pending after flush = %d", h.Pending())
	}
}

func TestPipelineDrainsPastWindow(t *testing.T) {
	// Submitting window+k requests completes roughly k ops during Submit.
	tbl := New(Config{Slots: 4096, PrefetchWindow: 8})
	h := tbl.NewHandle()
	reqs := make([]table.Request, 50)
	for i := range reqs {
		reqs[i] = table.Request{Op: table.Put, Key: uint64(i + 1), Value: uint64(i)}
	}
	h.Submit(reqs, nil)
	if p := h.Pending(); p > 8 {
		t.Fatalf("Pending = %d, exceeds window", p)
	}
	if done := h.Stats().Puts; done < 42 {
		t.Fatalf("only %d puts completed during submit of 50 with window 8", done)
	}
}

func TestOutOfOrderCompletionIDs(t *testing.T) {
	// Responses carry caller IDs, and every submitted Get completes exactly
	// once regardless of order.
	tbl := New(Config{Slots: 1 << 14, PrefetchWindow: 16})
	h := tbl.NewHandle()
	keys := workload.UniqueKeys(1, 5000)
	vals := make([]uint64, len(keys))
	for i := range vals {
		vals[i] = uint64(i) * 3
	}
	h.PutBatch(keys, vals)

	reqs := make([]table.Request, len(keys))
	for i, k := range keys {
		reqs[i] = table.Request{Op: table.Get, Key: k, ID: uint64(i)}
	}
	resps := make([]table.Response, len(keys))
	seen := make([]bool, len(keys))
	rem := reqs
	collect := func(rs []table.Response) {
		for _, r := range rs {
			if seen[r.ID] {
				t.Fatalf("response for ID %d delivered twice", r.ID)
			}
			seen[r.ID] = true
			if !r.Found || r.Value != vals[r.ID] {
				t.Fatalf("ID %d: got (%d, %v), want (%d, true)", r.ID, r.Value, r.Found, vals[r.ID])
			}
		}
	}
	for len(rem) > 0 {
		nreq, nresp := h.Submit(rem, resps)
		collect(resps[:nresp])
		rem = rem[nreq:]
	}
	for {
		nresp, done := h.Flush(resps)
		collect(resps[:nresp])
		if done {
			break
		}
	}
	for i, s := range seen {
		if !s {
			t.Fatalf("request %d never completed", i)
		}
	}
}

func TestResponseBufferBackpressure(t *testing.T) {
	// A tiny response buffer must block Submit rather than lose responses.
	tbl := New(Config{Slots: 4096, PrefetchWindow: 4})
	h := tbl.NewHandle()
	keys := workload.UniqueKeys(2, 200)
	vals := make([]uint64, len(keys))
	h.PutBatch(keys, vals)

	reqs := make([]table.Request, len(keys))
	for i, k := range keys {
		reqs[i] = table.Request{Op: table.Get, Key: k, ID: uint64(i)}
	}
	var tiny [3]table.Response
	total := 0
	rem := reqs
	for len(rem) > 0 {
		nreq, nresp := h.Submit(rem, tiny[:])
		total += nresp
		rem = rem[nreq:]
		if nreq == 0 && nresp == 0 {
			t.Fatal("Submit made no progress")
		}
	}
	for {
		nresp, done := h.Flush(tiny[:])
		total += nresp
		if done {
			break
		}
	}
	if total != len(keys) {
		t.Fatalf("collected %d responses, want %d", total, len(keys))
	}
}

func TestReprobeStatistics(t *testing.T) {
	// At 75% fill the paper reports ~1.3 cache lines per op (reprobes cross
	// lines only ~30% of the time). Check the measured ratio is in band.
	const size = 1 << 16
	tbl := New(Config{Slots: size})
	h := tbl.NewHandle()
	keys := workload.UniqueKeys(3, size*3/4)
	vals := make([]uint64, len(keys))
	h.PutBatch(keys, vals)

	h2 := tbl.NewHandle()
	found := make([]bool, len(keys))
	h2.GetBatch(keys, vals, found)
	st := h2.Stats()
	ratio := float64(st.Lines) / float64(st.Ops())
	if ratio < 1.05 || ratio > 1.8 {
		t.Errorf("lines/op = %.2f at 75%% fill, paper reports ~1.3", ratio)
	}
}

func TestLatencyHook(t *testing.T) {
	tbl := New(Config{Slots: 1024, PrefetchWindow: 8})
	h := tbl.NewHandle()
	var mu sync.Mutex
	lats := map[uint64]time.Duration{}
	h.SetLatencyHook(func(req table.Request, lat time.Duration) {
		mu.Lock()
		lats[req.ID] = lat
		mu.Unlock()
	})
	reqs := make([]table.Request, 20)
	for i := range reqs {
		reqs[i] = table.Request{Op: table.Put, Key: uint64(i + 1), ID: uint64(i)}
	}
	h.Submit(reqs, nil)
	h.Flush(nil)
	if len(lats) != 20 {
		t.Fatalf("latency hook fired %d times, want 20", len(lats))
	}
	for id, l := range lats {
		if l < 0 {
			t.Errorf("negative latency for ID %d", id)
		}
	}
}

func TestWindowOneIsSynchronous(t *testing.T) {
	// Window 1 completes each request during the next Submit call.
	tbl := New(Config{Slots: 256, PrefetchWindow: 1})
	h := tbl.NewHandle()
	var resp [4]table.Response
	h.Submit([]table.Request{{Op: table.Put, Key: 9, Value: 90}}, resp[:])
	nreq, nresp := h.Submit([]table.Request{{Op: table.Get, Key: 9, ID: 77}}, resp[:])
	if nreq != 1 {
		t.Fatal("submit did not consume")
	}
	// The Put must have completed to make room; the Get may still be
	// pending. Flush and verify.
	n, done := h.Flush(resp[nresp:])
	if !done {
		t.Fatal("flush did not finish")
	}
	nresp += n
	if nresp != 1 || resp[0].ID != 77 || resp[0].Value != 90 || !resp[0].Found {
		t.Fatalf("bad response: %+v (n=%d)", resp[0], nresp)
	}
}

func TestConcurrentHandles(t *testing.T) {
	// Multiple goroutines each with their own handle on one table.
	tbl := New(Config{Slots: 1 << 15})
	const g = 8
	const perG = 2000
	keys := workload.UniqueKeys(4, g*perG)
	var wg sync.WaitGroup
	for w := 0; w < g; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := tbl.NewHandle()
			part := keys[w*perG : (w+1)*perG]
			vals := make([]uint64, len(part))
			for i := range vals {
				vals[i] = part[i] ^ 0xabc
			}
			h.PutBatch(part, vals)
		}(w)
	}
	wg.Wait()
	if tbl.Len() != g*perG {
		t.Fatalf("Len = %d, want %d", tbl.Len(), g*perG)
	}
	h := tbl.NewHandle()
	vals := make([]uint64, len(keys))
	found := make([]bool, len(keys))
	h.GetBatch(keys, vals, found)
	for i, k := range keys {
		if !found[i] || vals[i] != k^0xabc {
			t.Fatalf("key %d: (%d, %v)", i, vals[i], found[i])
		}
	}
}

func TestConcurrentUpsertHandles(t *testing.T) {
	tbl := New(Config{Slots: 4096})
	keys := workload.UniqueKeys(5, 50)
	const g = 6
	const rounds = 200
	var wg sync.WaitGroup
	for w := 0; w < g; w++ {
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
		if v, _ := s.Get(k); v != g*rounds {
			t.Fatalf("count = %d, want %d", v, g*rounds)
		}
	}
}

func TestDuplicateKeysInOneWindow(t *testing.T) {
	// The same key submitted multiple times within a single window must not
	// create duplicate slots.
	tbl := New(Config{Slots: 256, PrefetchWindow: 16})
	h := tbl.NewHandle()
	reqs := make([]table.Request, 16)
	for i := range reqs {
		reqs[i] = table.Request{Op: table.Upsert, Key: 42, Value: 1}
	}
	h.Submit(reqs, nil)
	h.Flush(nil)
	if tbl.Len() != 1 {
		t.Fatalf("Len = %d after 16 upserts of one key, want 1", tbl.Len())
	}
	s := tbl.NewSync()
	if v, _ := s.Get(42); v != 16 {
		t.Fatalf("value = %d, want 16", v)
	}
}

func TestMixedOpsRandomizedVsMap(t *testing.T) {
	// Drive the batched interface directly (not via Sync) against a
	// reference map, flushing at random batch boundaries.
	tbl := New(Config{Slots: 8192, PrefetchWindow: 8})
	h := tbl.NewHandle()
	ref := make(map[uint64]uint64)
	rng := rand.New(rand.NewSource(6))
	resps := make([]table.Response, 64)

	var batch []table.Request
	expected := make(map[uint64]uint64) // ID -> expected value at submit time
	expFound := make(map[uint64]bool)
	var nextID uint64

	apply := func(rs []table.Response) {
		for _, r := range rs {
			if want, ok := expected[r.ID]; ok {
				if r.Found != expFound[r.ID] || (r.Found && r.Value != want) {
					t.Fatalf("ID %d: got (%d,%v) want (%d,%v)", r.ID, r.Value, r.Found, want, expFound[r.ID])
				}
				delete(expected, r.ID)
				delete(expFound, r.ID)
			}
		}
	}
	flushAll := func() {
		for {
			n, done := h.Flush(resps)
			apply(resps[:n])
			if done {
				return
			}
		}
	}

	for i := 0; i < 30000; i++ {
		k := uint64(rng.Intn(600)) + 10
		switch rng.Intn(6) {
		case 0, 1:
			v := uint64(rng.Intn(1 << 30))
			batch = append(batch, table.Request{Op: table.Put, Key: k, Value: v})
			ref[k] = v
		case 2:
			batch = append(batch, table.Request{Op: table.Upsert, Key: k, Value: 5})
			ref[k] += 5
		case 3:
			batch = append(batch, table.Request{Op: table.Delete, Key: k})
			delete(ref, k)
		default:
			// Flush pending same-key mutations first so the expected value
			// is well defined, record the expectation, then submit the Get.
			rem := batch
			for len(rem) > 0 {
				nreq, nresp := h.Submit(rem, resps)
				apply(resps[:nresp])
				rem = rem[nreq:]
			}
			batch = batch[:0]
			flushAll()
			id := nextID
			nextID++
			want, ok := ref[k]
			expected[id] = want
			expFound[id] = ok
			batch = append(batch, table.Request{Op: table.Get, Key: k, ID: id})
		}
		if len(batch) >= 16 {
			rem := batch
			for len(rem) > 0 {
				nreq, nresp := h.Submit(rem, resps)
				apply(resps[:nresp])
				rem = rem[nreq:]
			}
			batch = batch[:0]
		}
	}
	rem := batch
	for len(rem) > 0 {
		nreq, nresp := h.Submit(rem, resps)
		apply(resps[:nresp])
		rem = rem[nreq:]
	}
	flushAll()
	if len(expected) != 0 {
		t.Fatalf("%d Gets never produced a response", len(expected))
	}
	// Final state check.
	s := tbl.NewSync()
	for k, want := range ref {
		if got, ok := s.Get(k); !ok || got != want {
			t.Fatalf("final: Get(%d) = (%d,%v), want (%d,true)", k, got, ok, want)
		}
	}
}

func TestPanicsOnBadConfig(t *testing.T) {
	for _, cfg := range []Config{{Slots: 0}, {Slots: 10, PrefetchWindow: -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%+v) did not panic", cfg)
				}
			}()
			New(cfg)
		}()
	}
}

func TestStatsAccounting(t *testing.T) {
	tbl := New(Config{Slots: 1024})
	h := tbl.NewHandle()
	keys := workload.UniqueKeys(7, 100)
	vals := make([]uint64, 100)
	h.PutBatch(keys, vals)
	found := make([]bool, 100)
	h.GetBatch(keys, vals, found)
	st := h.Stats()
	if st.Puts != 100 || st.Gets != 100 {
		t.Fatalf("stats: %+v", st)
	}
	if st.Hits != 100 {
		t.Fatalf("hits = %d, want 100", st.Hits)
	}
	if st.Lines < st.Ops() {
		t.Fatalf("lines %d < ops %d", st.Lines, st.Ops())
	}

	// Every request counts exactly once: a duplicate-heavy segment must keep
	// Gets+Puts+Upserts+Deletes equal to the requests submitted.
	reqs := make([]table.Request, 0, 40)
	for i := 0; i < 10; i++ {
		k := keys[i%2]
		reqs = append(reqs,
			table.Request{Op: table.Upsert, Key: k, Value: 1},
			table.Request{Op: table.Get, Key: k, ID: uint64(i)},
			table.Request{Op: table.Put, Key: k, Value: 9},
			table.Request{Op: table.Delete, Key: k},
		)
	}
	resps := make([]table.Response, len(reqs))
	rem := reqs
	nr := 0
	for len(rem) > 0 {
		n, w := h.Submit(rem, resps[nr:])
		rem = rem[n:]
		nr += w
	}
	for {
		w, done := h.Flush(resps[nr:])
		nr += w
		if done {
			break
		}
	}
	st2 := h.Stats()
	if got := st2.Ops() - st.Ops(); got != uint64(len(reqs)) {
		t.Fatalf("op counters grew by %d, want %d (each request once)", got, len(reqs))
	}
	if nr != 10 {
		t.Fatalf("%d Get responses, want 10", nr)
	}
}
