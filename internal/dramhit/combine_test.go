package dramhit

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"dramhit/internal/table"
	"dramhit/internal/workload"
)

// combinePair drives two otherwise-identical tables — one per combining
// setting — through the same request stream with the same flush boundaries.
// Combining reorders same-key Get/write pairs (a forwarded Get is ordered
// after the write it forwards from), so responses are compared as per-ID
// multisets rather than positionally, and table state is compared at flush
// points on workloads whose per-segment effects commute.
type combinePair struct {
	t        *testing.T
	on, off  *Handle
	onT, ofT *Table
	rOn, rOf []table.Response
	nOn, nOf int
}

func newCombinePair(t *testing.T, slots uint64, window, respCap int) *combinePair {
	on := New(Config{Slots: slots, PrefetchWindow: window, Combining: table.CombineOn})
	off := New(Config{Slots: slots, PrefetchWindow: window, Combining: table.CombineOff})
	return &combinePair{
		t:   t,
		onT: on, ofT: off,
		on: on.NewHandle(), off: off.NewHandle(),
		rOn: make([]table.Response, respCap),
		rOf: make([]table.Response, respCap),
	}
}

func (cp *combinePair) submit(reqs []table.Request) {
	cp.t.Helper()
	remN, remF := reqs, reqs
	for len(remN) > 0 || len(remF) > 0 {
		if len(remN) > 0 {
			n, nr := cp.on.Submit(remN, cp.rOn[cp.nOn:])
			remN = remN[n:]
			cp.nOn += nr
		}
		if len(remF) > 0 {
			n, nr := cp.off.Submit(remF, cp.rOf[cp.nOf:])
			remF = remF[n:]
			cp.nOf += nr
		}
	}
}

func (cp *combinePair) flush() {
	cp.t.Helper()
	for {
		n, done := cp.on.Flush(cp.rOn[cp.nOn:])
		cp.nOn += n
		if done {
			break
		}
	}
	for {
		n, done := cp.off.Flush(cp.rOf[cp.nOf:])
		cp.nOf += n
		if done {
			break
		}
	}
}

// compare checks the response ID multisets and the completion counters; it
// does not compare values (see combinePair) or probe counters (a merged
// request deliberately skips the probe).
func (cp *combinePair) compare(what string) {
	cp.t.Helper()
	if cp.nOn != cp.nOf {
		cp.t.Fatalf("%s: on wrote %d responses, off %d", what, cp.nOn, cp.nOf)
	}
	ids := make(map[uint64]int, cp.nOn)
	for _, r := range cp.rOn[:cp.nOn] {
		ids[r.ID]++
	}
	for _, r := range cp.rOf[:cp.nOf] {
		ids[r.ID]--
	}
	for id, d := range ids {
		if d != 0 {
			cp.t.Fatalf("%s: response ID %d appears %+d more times with combining on", what, id, d)
		}
	}
	cp.nOn, cp.nOf = 0, 0
	so, sf := cp.on.Stats(), cp.off.Stats()
	if so.Gets != sf.Gets || so.Puts != sf.Puts || so.Upserts != sf.Upserts || so.Deletes != sf.Deletes {
		cp.t.Fatalf("%s: completion counts diverged:\non  %+v\noff %+v", what, so, sf)
	}
	if sf.CombinedUpserts != 0 || sf.PiggybackedGets != 0 || sf.ForwardedGets != 0 {
		cp.t.Fatalf("%s: combining-off handle counted combines: %+v", what, sf)
	}
}

// stateEqual asserts both tables hold the same value for every key in keys
// (compared through the synchronous adapter after a full flush).
func (cp *combinePair) stateEqual(what string, keys []uint64) {
	cp.t.Helper()
	so, sf := cp.onT.NewSync(), cp.ofT.NewSync()
	for _, k := range keys {
		vo, oko := so.Get(k)
		vf, okf := sf.Get(k)
		if vo != vf || oko != okf {
			cp.t.Fatalf("%s: key %d diverged: on (%d,%v) off (%d,%v)", what, k, vo, oko, vf, okf)
		}
	}
}

// TestCombineEquivalenceProperty is the on-vs-off property test: over
// randomized hot-key workloads whose per-segment effects commute (Upserts
// fold, Puts of a key always store the same value, Deletes target keys not
// otherwise written in the segment), the two settings must complete the
// same requests, answer the same Gets, and agree on the table state at
// every flush boundary — while the combining side actually combines.
func TestCombineEquivalenceProperty(t *testing.T) {
	sizes := []uint64{16, 64, 251, 1024}
	windows := []int{4, 16, 64}
	for _, size := range sizes {
		for _, window := range windows {
			rng := rand.New(rand.NewSource(int64(size)*131 + int64(window)))
			nkeys := int(size) / 2
			keys := make([]uint64, nkeys)
			for i := range keys {
				keys[i] = uint64(i) + 3
			}
			cp := newCombinePair(t, size, window, 30000)
			var nextID uint64
			for seg := 0; seg < 6; seg++ {
				// A rotating eighth of the keys is delete-only this segment,
				// the rest write-only — no segment orders a Delete against a
				// write of the same key (which would not commute), and the
				// bounded churn keeps tombstones from filling the table (a
				// full table fails order-dependently).
				var batch []table.Request
				for i := 0; i < 200; i++ {
					var r table.Request
					r.ID = nextID
					nextID++
					ki := rng.Intn(nkeys)
					if hot := rng.Intn(3) == 0; hot {
						ki = rng.Intn(4) * nkeys / 4 // concentrate on a few keys
					}
					r.Key = keys[ki]
					switch {
					case (ki+seg)%8 == 7:
						if rng.Intn(2) == 0 {
							r.Op = table.Delete
						} else {
							r.Op = table.Get
						}
					default:
						// Fix each key's write kind for the whole segment:
						// folding may reorder an Upsert across an intervening
						// same-key Put (a legal reordering), so Put and Upsert
						// on one key inside one segment would not commute.
						putKey := (ki+seg)%3 == 0
						switch {
						case rng.Intn(4) == 3:
							r.Op = table.Get
						case putKey:
							r.Op = table.Put
							r.Value = r.Key * 7 // per-key-deterministic store
						default:
							r.Op = table.Upsert
							r.Value = uint64(rng.Intn(100))
						}
					}
					batch = append(batch, r)
					if len(batch) >= 1+rng.Intn(24) {
						cp.submit(batch)
						batch = batch[:0]
					}
				}
				cp.submit(batch)
				cp.flush()
				cp.compare("segment")
				cp.stateEqual("segment", keys)
			}
			if so := cp.on.Stats(); so.CombinedUpserts+so.PiggybackedGets+so.ForwardedGets == 0 && window > 1 {
				t.Fatalf("size %d window %d: hot-key workload never combined: %+v", size, window, so)
			}
		}
	}
}

// TestCombineForwardingExact pins the merge rules' exact values on a quiet
// table: folded upserts sum, forwarded Gets see the in-flight value at the
// leader's completion, piggybacked Gets share one probe result, and every
// request is counted exactly once.
func TestCombineForwardingExact(t *testing.T) {
	tbl := New(Config{Slots: 1 << 12, PrefetchWindow: 16})
	h := tbl.NewHandle()
	const k = 99
	resps := make([]table.Response, 16)

	reqs := []table.Request{
		{Op: table.Upsert, Key: k, Value: 5, ID: 0},
		{Op: table.Get, Key: k, ID: 1},
		{Op: table.Get, Key: k, ID: 2},
		{Op: table.Upsert, Key: k, Value: 3, ID: 3},
		{Op: table.Get, Key: k, ID: 4},
	}
	if n, _ := h.Submit(reqs, resps); n != len(reqs) {
		t.Fatalf("submit consumed %d", n)
	}
	nresp, done := h.Flush(resps)
	if !done {
		t.Fatal("flush not done")
	}
	if nresp != 3 {
		t.Fatalf("got %d responses, want 3", nresp)
	}
	for _, r := range resps[:nresp] {
		if !r.Found || r.Value != 8 {
			t.Fatalf("forwarded Get %d = (%d,%v), want (8,true)", r.ID, r.Value, r.Found)
		}
	}
	st := h.Stats()
	if st.Upserts != 2 || st.CombinedUpserts != 1 {
		t.Fatalf("upsert accounting: %+v", st)
	}
	if st.Gets != 3 || st.ForwardedGets != 3 || st.Hits != 3 {
		t.Fatalf("forwarded-get accounting: %+v", st)
	}
	if st.Lines != 1 {
		t.Fatalf("combined burst touched %d lines, want 1", st.Lines)
	}

	// Piggybacking: three Gets, one probe.
	gets := []table.Request{
		{Op: table.Get, Key: k, ID: 10},
		{Op: table.Get, Key: k, ID: 11},
		{Op: table.Get, Key: k, ID: 12},
	}
	h.Submit(gets, resps)
	nresp, _ = h.Flush(resps)
	if nresp != 3 {
		t.Fatalf("piggyback responses %d", nresp)
	}
	for _, r := range resps[:nresp] {
		if !r.Found || r.Value != 8 {
			t.Fatalf("piggybacked Get %d = (%d,%v), want (8,true)", r.ID, r.Value, r.Found)
		}
	}
	st2 := h.Stats()
	if st2.PiggybackedGets != 2 || st2.Lines != st.Lines+1 {
		t.Fatalf("piggyback accounting: %+v", st2)
	}

	// Delete is a barrier: the second upsert must not fold across it.
	barrier := []table.Request{
		{Op: table.Upsert, Key: k, Value: 1, ID: 20},
		{Op: table.Delete, Key: k, ID: 21},
		{Op: table.Upsert, Key: k, Value: 1, ID: 22},
	}
	h.Submit(barrier, resps)
	h.Flush(resps)
	st3 := h.Stats()
	if st3.CombinedUpserts != st2.CombinedUpserts {
		t.Fatalf("upsert folded across a Delete barrier: %+v", st3)
	}
	if v, ok := tbl.NewSync().Get(k); !ok || v != 1 {
		t.Fatalf("after barrier sequence: (%d,%v), want (1,true)", v, ok)
	}
}

// TestCombineChainBackpressure starves the response buffer below the chain
// length: the leader parks mid-emission at the queue head, Flush reports
// not-done, and emission resumes without losing, duplicating or corrupting
// a single response. A Get submitted while the leader is parked must not
// combine onto the already-resolved probe (its slot's ptag is cleared), but
// must still be answered.
func TestCombineChainBackpressure(t *testing.T) {
	tbl := New(Config{Slots: 1 << 10, PrefetchWindow: 16})
	h := tbl.NewHandle()
	const k = 7
	big := make([]table.Response, 4)
	h.Submit([]table.Request{{Op: table.Put, Key: k, Value: 42, ID: 0}}, big)
	h.Flush(big)

	reqs := make([]table.Request, 8)
	for i := range reqs {
		reqs[i] = table.Request{Op: table.Get, Key: k, ID: uint64(i + 1)}
	}
	h.Submit(reqs, big[:0])

	one := make([]table.Response, 1)
	seen := make(map[uint64]uint64)
	flushes := 0
	for {
		n, done := h.Flush(one)
		if n > 0 {
			if _, dup := seen[one[0].ID]; dup {
				t.Fatalf("duplicate response for ID %d", one[0].ID)
			}
			seen[one[0].ID] = one[0].Value
		}
		flushes++
		if flushes == 2 {
			// Mid-park: this Get must become a fresh leader, not combine
			// onto the resolved one.
			h.Submit([]table.Request{{Op: table.Get, Key: k, ID: 100}}, one[:0])
		}
		if done {
			break
		}
		if flushes > 100 {
			t.Fatal("flush livelocked")
		}
	}
	if len(seen) != 9 {
		t.Fatalf("got %d distinct responses, want 9 (%v)", len(seen), seen)
	}
	for id, v := range seen {
		if v != 42 {
			t.Fatalf("ID %d got value %d, want 42", id, v)
		}
	}
	if st := h.Stats(); st.PiggybackedGets != 7 {
		t.Fatalf("PiggybackedGets = %d, want 7 (parked leader must not absorb)", st.PiggybackedGets)
	}
}

// TestCombineIDMultiset submits a randomized all-ops stream — duplicates,
// reserved keys, Delete barriers — with unique IDs and asserts through the
// completion hook that every submitted request completes exactly once, and
// through the responses that every Get is answered exactly once. This is
// the async contract the combine path must preserve.
func TestCombineIDMultiset(t *testing.T) {
	for _, kernel := range []table.ProbeKernel{table.KernelSWAR, table.KernelScalar} {
		tbl := New(Config{Slots: 256, PrefetchWindow: 16, ProbeKernel: kernel})
		h := tbl.NewHandle()
		completed := make(map[uint64]int)
		h.SetLatencyHook(func(req table.Request, _ time.Duration) { completed[req.ID]++ })
		answered := make(map[uint64]int)
		rng := rand.New(rand.NewSource(42))
		resps := make([]table.Response, 64)
		var nextID uint64
		gets := 0
		for batch := 0; batch < 400; batch++ {
			reqs := make([]table.Request, 1+rng.Intn(24))
			for i := range reqs {
				k := uint64(rng.Intn(12)) // dense duplication
				switch rng.Intn(16) {
				case 0:
					k = table.EmptyKey
				case 1:
					k = table.TombstoneKey
				}
				op := table.Op(rng.Intn(4))
				if op == table.Get {
					gets++
				}
				reqs[i] = table.Request{Op: op, Key: k, Value: 1, ID: nextID}
				nextID++
			}
			rem := reqs
			for len(rem) > 0 {
				n, nr := h.Submit(rem, resps)
				rem = rem[n:]
				for _, r := range resps[:nr] {
					answered[r.ID]++
				}
			}
			if rng.Intn(5) == 0 {
				for {
					nr, done := h.Flush(resps)
					for _, r := range resps[:nr] {
						answered[r.ID]++
					}
					if done {
						break
					}
				}
			}
		}
		for {
			nr, done := h.Flush(resps)
			for _, r := range resps[:nr] {
				answered[r.ID]++
			}
			if done {
				break
			}
		}
		if uint64(len(completed)) != nextID {
			t.Fatalf("kernel %v: %d distinct completions, want %d", kernel, len(completed), nextID)
		}
		for id, n := range completed {
			if n != 1 {
				t.Fatalf("kernel %v: ID %d completed %d times", kernel, id, n)
			}
		}
		if len(answered) != gets {
			t.Fatalf("kernel %v: %d distinct Get responses, want %d", kernel, len(answered), gets)
		}
		for id, n := range answered {
			if n != 1 {
				t.Fatalf("kernel %v: ID %d answered %d times", kernel, id, n)
			}
		}
		st := h.Stats()
		if got := st.Gets + st.Puts + st.Upserts + st.Deletes; got != nextID {
			t.Fatalf("kernel %v: op counters sum to %d, want %d (combined ops must count exactly once)", kernel, got, nextID)
		}
	}
}

// TestCombineZeroExtraTransactions pins the headline claim: a merged
// request adds zero cache-line loads and zero atomics. N duplicate upserts
// in one window must cost exactly one line and the same CAS count one
// upsert costs.
func TestCombineZeroExtraTransactions(t *testing.T) {
	tbl := New(Config{Slots: 1 << 12, PrefetchWindow: 16})
	h := tbl.NewHandle()
	var none []table.Response
	h.Submit([]table.Request{{Op: table.Upsert, Key: 5, Value: 1}}, none)
	h.Flush(none)
	base := h.Stats()

	reqs := make([]table.Request, 64)
	for i := range reqs {
		reqs[i] = table.Request{Op: table.Upsert, Key: 5, Value: 1, ID: uint64(i)}
	}
	rem := reqs
	for len(rem) > 0 {
		n, _ := h.Submit(rem, none)
		rem = rem[n:]
	}
	h.Flush(none)
	st := h.Stats()
	if st.Upserts-base.Upserts != 64 || st.CombinedUpserts-base.CombinedUpserts != 63 {
		t.Fatalf("fold accounting: %+v (base %+v)", st, base)
	}
	if lines := st.Lines - base.Lines; lines != 1 {
		t.Fatalf("64 duplicate upserts touched %d lines, want 1", lines)
	}
	if cas := st.CASAttempts - base.CASAttempts; cas != 1 {
		t.Fatalf("64 duplicate upserts issued %d atomics, want 1", cas)
	}
	if v, ok := tbl.NewSync().Get(5); !ok || v != 65 {
		t.Fatalf("folded sum: (%d,%v), want (65,true)", v, ok)
	}
}

// TestCombineConcurrentFoldRaces races duplicate-heavy upsert streams from
// many handles on one combining table: every fold must survive concurrent
// writers, so the final counts are exact. Run under -race in CI.
func TestCombineConcurrentFoldRaces(t *testing.T) {
	tbl := New(Config{Slots: 1 << 12})
	keys := workload.UniqueKeys(11, 32)
	const goroutines = 6
	const rounds = 200
	const dups = 4
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			h := tbl.NewHandle()
			rng := rand.New(rand.NewSource(int64(g) * 977))
			reqs := make([]table.Request, 0, len(keys)*dups)
			var none []table.Response
			for r := 0; r < rounds; r++ {
				reqs = reqs[:0]
				for d := 0; d < dups; d++ {
					for _, k := range keys {
						reqs = append(reqs, table.Request{Op: table.Upsert, Key: k, Value: 1})
					}
				}
				rng.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
				rem := reqs
				for len(rem) > 0 {
					n, _ := h.Submit(rem, none)
					rem = rem[n:]
				}
				if _, done := h.Flush(none); !done {
					t.Error("flush with nil resps not done")
					return
				}
			}
		}(g)
	}
	wg.Wait()
	s := tbl.NewSync()
	for _, k := range keys {
		if v, ok := s.Get(k); !ok || v != goroutines*rounds*dups {
			t.Fatalf("key %d: (%d,%v), want %d", k, v, ok, goroutines*rounds*dups)
		}
	}
}

// TestCombineConcurrentReadersWriters races piggybacking readers against
// folding writers; every Get must be answered with a value some prefix of
// the upsert stream could have produced (0..total, monotonicity is not
// guaranteed across handles). Run under -race in CI.
func TestCombineConcurrentReadersWriters(t *testing.T) {
	tbl := New(Config{Slots: 1 << 10})
	keys := workload.UniqueKeys(13, 8)
	const writers, readers, rounds = 3, 3, 120
	const total = writers * rounds
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := tbl.NewHandle()
			var none []table.Response
			for r := 0; r < rounds; r++ {
				reqs := make([]table.Request, 0, len(keys))
				for _, k := range keys {
					reqs = append(reqs, table.Request{Op: table.Upsert, Key: k, Value: 1})
				}
				rem := reqs
				for len(rem) > 0 {
					n, _ := h.Submit(rem, none)
					rem = rem[n:]
				}
				h.Flush(none)
			}
		}()
	}
	for rd := 0; rd < readers; rd++ {
		wg.Add(1)
		go func(rd int) {
			defer wg.Done()
			h := tbl.NewHandle()
			resps := make([]table.Response, 64)
			for r := 0; r < rounds; r++ {
				reqs := make([]table.Request, 0, len(keys)*2)
				for d := 0; d < 2; d++ {
					for _, k := range keys {
						reqs = append(reqs, table.Request{Op: table.Get, Key: k, ID: k})
					}
				}
				rem := reqs
				check := func(rs []table.Response) {
					for _, resp := range rs {
						if resp.Found && resp.Value > total {
							t.Errorf("reader %d: key %d read impossible count %d > %d", rd, resp.ID, resp.Value, total)
						}
					}
				}
				for len(rem) > 0 {
					n, nr := h.Submit(rem, resps)
					rem = rem[n:]
					check(resps[:nr])
				}
				for {
					nr, done := h.Flush(resps)
					check(resps[:nr])
					if done {
						break
					}
				}
			}
		}(rd)
	}
	wg.Wait()
}

// TestCombineConfigWiring pins the Config contract: combining defaults on,
// off is selectable, the setting is exposed, and the scalar kernel combines
// too (the merge decision never reads the
// table, so it is kernel-independent and the kernel equivalence tests rely
// on both kernels combining identically).
func TestCombineConfigWiring(t *testing.T) {
	if def := New(Config{Slots: 16}); def.Combining() != table.CombineOn {
		t.Fatalf("default Combining() = %v, want on", def.Combining())
	}
	if off := New(Config{Slots: 16, Combining: table.CombineOff}); off.Combining() != table.CombineOff {
		t.Fatalf("explicit off: Combining() = %v", off.Combining())
	}
	sc := New(Config{Slots: 16, ProbeKernel: table.KernelScalar})
	if sc.Combining() != table.CombineOn {
		t.Fatalf("scalar kernel: Combining() = %v, want on", sc.Combining())
	}
	h := New(Config{Slots: 16, Combining: table.CombineOff}).NewHandle()
	if h.ptags != nil {
		t.Fatal("combining-off handle allocated a ptag sidecar")
	}
	if on := New(Config{Slots: 16}).NewHandle(); on.ptags == nil {
		t.Fatal("combining-on handle missing its ptag sidecar")
	}
}
