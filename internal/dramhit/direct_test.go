package dramhit

import (
	"math/rand"
	"os"
	"testing"

	"dramhit/internal/slotarr"
	"dramhit/internal/table"
	"dramhit/internal/workload"
)

// TestMain runs every table New makes in this package's tests on the prefetch
// ring, unless a test asks for direct mode (GovernorDirect) or sets the size
// rule itself (withDirectMax): the tests use small tables, which New would
// otherwise run in direct mode, and most of them test the ring.
func TestMain(m *testing.M) {
	directMaxBytes = 0
	os.Exit(m.Run())
}

// withDirectMax sets the size rule's bound for the rest of t.
func withDirectMax(t *testing.T, n uint64) {
	old := directMaxBytes
	directMaxBytes = n
	t.Cleanup(func() { directMaxBytes = old })
}

// modePair drives two tables — one pipelined and one built in direct mode —
// through the same request stream with the same flush boundaries and asserts
// equivalent behaviour. Responses are compared per ID
// (the pipeline completes out of order; direct completes in submission
// order — the ordering is not part of the contract, the per-request results
// are), and the order-insensitive Stats are compared exactly: op counts,
// hits, failures and CAS attempts are each a pure
// function of per-request outcomes. The traversal counters (Reprobes, Lines,
// KeyLines) are NOT compared: probe
// chain lengths depend on which neighboring writes had landed when a probe
// ran, and the two modes execute a batch in different orders by design.
//
// Batches use distinct keys: ordering between same-key requests inside one
// pipeline window is explicitly undefined for the pipelined mode (see
// Submit's doc), so only streams where each batch has unique keys have a
// deterministic per-ID outcome to pin. Same-key conflicts across flush
// boundaries are fully exercised.
type modePair struct {
	t            *testing.T
	pipe, direct *Handle
	pipeT, dirT  *Table
	rPipe, rDir  []table.Response
	nPipe, nDir  int
}

func newModePair(t *testing.T, slots uint64, window, respCap int) *modePair {
	tp := New(Config{Slots: slots, PrefetchWindow: window})
	td := New(Config{Slots: slots, PrefetchWindow: window, Governor: table.GovernorDirect})
	return &modePair{
		t:      t,
		pipeT:  tp,
		dirT:   td,
		pipe:   tp.NewHandle(),
		direct: td.NewHandle(),
		rPipe:  make([]table.Response, respCap),
		rDir:   make([]table.Response, respCap),
	}
}

func (gp *modePair) submit(reqs []table.Request) {
	gp.t.Helper()
	remP, remD := reqs, reqs
	for len(remP) > 0 || len(remD) > 0 {
		if len(remP) > 0 {
			n, nr := gp.pipe.Submit(remP, gp.rPipe[gp.nPipe:])
			remP = remP[n:]
			gp.nPipe += nr
		}
		if len(remD) > 0 {
			n, nr := gp.direct.Submit(remD, gp.rDir[gp.nDir:])
			remD = remD[n:]
			gp.nDir += nr
		}
	}
}

func (gp *modePair) flush() {
	gp.t.Helper()
	for {
		n, done := gp.pipe.Flush(gp.rPipe[gp.nPipe:])
		gp.nPipe += n
		if done {
			break
		}
	}
	for {
		n, done := gp.direct.Flush(gp.rDir[gp.nDir:])
		gp.nDir += n
		if done {
			break
		}
	}
}

func (gp *modePair) compare(what string) {
	gp.t.Helper()
	if gp.nPipe != gp.nDir {
		gp.t.Fatalf("%s: pipelined wrote %d responses, direct %d", what, gp.nPipe, gp.nDir)
	}
	byID := make(map[uint64]table.Response, gp.nPipe)
	for _, r := range gp.rPipe[:gp.nPipe] {
		byID[r.ID] = r
	}
	for _, r := range gp.rDir[:gp.nDir] {
		p, ok := byID[r.ID]
		if !ok {
			gp.t.Fatalf("%s: direct response ID %d has no pipelined counterpart", what, r.ID)
		}
		if p != r {
			gp.t.Fatalf("%s: ID %d diverged: pipelined %+v direct %+v", what, r.ID, p, r)
		}
	}
	gp.nPipe, gp.nDir = 0, 0
	if sp, sd := outcomeStats(gp.pipe.Stats()), outcomeStats(gp.direct.Stats()); sp != sd {
		gp.t.Fatalf("%s: outcome stats diverged:\npipelined %+v\ndirect    %+v", what, sp, sd)
	}
}

// outcomeStats strips the traversal-order-dependent counters, keeping only
// the fields determined by per-request outcomes.
func outcomeStats(s Stats) Stats {
	s.Reprobes, s.Lines, s.KeyLines = 0, 0, 0
	return s
}

// compareStrict is the window-1 comparison: both modes execute in submission
// order, so responses must match positionally and every Stats counter —
// traversal accounting included — must be bit-identical.
func (gp *modePair) compareStrict(what string) {
	gp.t.Helper()
	if gp.nPipe != gp.nDir {
		gp.t.Fatalf("%s: pipelined wrote %d responses, direct %d", what, gp.nPipe, gp.nDir)
	}
	for i := 0; i < gp.nPipe; i++ {
		if gp.rPipe[i] != gp.rDir[i] {
			gp.t.Fatalf("%s: response %d diverged: pipelined %+v direct %+v",
				what, i, gp.rPipe[i], gp.rDir[i])
		}
	}
	gp.nPipe, gp.nDir = 0, 0
	if sp, sd := gp.pipe.Stats(), gp.direct.Stats(); sp != sd {
		gp.t.Fatalf("%s: stats diverged:\npipelined %+v\ndirect    %+v", what, sp, sd)
	}
}

// TestDirectSequentialEquivalence is the strict half of the direct≡pipelined
// property: against a window-1 pipeline — which executes requests in
// submission order, the same order direct mode uses — the direct table must
// be bit-identical over randomized mixed workloads: all four ops, reserved
// keys, tombstone churn, wrap-around sizes, single-line tables and
// table-full failures. Every response (order included), every
// Stats counter (traversal accounting included), the final Len and a full
// semantic Get sweep must match.
func TestDirectSequentialEquivalence(t *testing.T) {
	sizes := []uint64{3, 4, 5, 16, 37, 251, 1024}
	for _, size := range sizes {
		rng := rand.New(rand.NewSource(int64(size) * 131))
		keyRange := int(size) * 2
		ops := 4000
		if size >= 1024 {
			ops = 20000
		}
		gp := newModePair(t, size, 1, ops+64)
		var batch []table.Request
		for i := 0; i < ops; i++ {
			var k uint64
			switch rng.Intn(20) {
			case 0:
				k = table.EmptyKey
			case 1:
				k = table.TombstoneKey
			default:
				k = uint64(rng.Intn(keyRange)) + 1
			}
			batch = append(batch, table.Request{
				Op: table.Op(rng.Intn(4)), Key: k,
				Value: uint64(rng.Intn(1 << 16)), ID: uint64(i),
			})
			if len(batch) >= 1+rng.Intn(32) {
				gp.submit(batch)
				batch = batch[:0]
				if rng.Intn(4) == 0 {
					gp.flush()
					gp.compareStrict("mid-run")
				}
			}
		}
		gp.submit(batch)
		gp.flush()
		gp.compareStrict("final")
		if gp.pipeT.Len() != gp.dirT.Len() {
			t.Fatalf("size %d: Len diverged: pipelined %d direct %d",
				size, gp.pipeT.Len(), gp.dirT.Len())
		}
		sp, sd := gp.pipeT.NewSync(), gp.dirT.NewSync()
		for k := uint64(1); k <= uint64(keyRange); k++ {
			vp, okp := sp.Get(k)
			vd, okd := sd.Get(k)
			if vp != vd || okp != okd {
				t.Fatalf("size %d key %d: pipelined (%d,%v) direct (%d,%v)",
					size, k, vp, okp, vd, okd)
			}
		}
	}
}

// TestDirectPipelinedEquivalence is the out-of-order half: against deep
// pipelines (which complete out of submission order), per-ID responses and
// outcome stats must still match wherever the pipelined result is
// deterministic — batches of distinct keys on a table that never saturates
// (no Deletes, fill well under capacity), with flushes between batches.
// Near-full tables are excluded by construction: which of two racing
// inserts wins the last slot is order-dependent in the pipelined mode by
// documented design, so there is no sequential answer to pin there.
func TestDirectPipelinedEquivalence(t *testing.T) {
	sizes := []uint64{64, 251, 1024}
	windows := []int{4, 16}
	for _, size := range sizes {
		for _, window := range windows {
			rng := rand.New(rand.NewSource(int64(size)*17 + int64(window)))
			keyRange := int(size) / 2 // never saturates (no deletes below)
			ops := 6000
			gp := newModePair(t, size, window, ops+64)
			var nextID uint64
			batch := make([]table.Request, 0, 32)
			inBatch := make(map[uint64]bool, 32)
			flushBatch := func(what string) {
				gp.submit(batch)
				gp.flush()
				gp.compare(what)
				batch = batch[:0]
				for kk := range inBatch {
					delete(inBatch, kk)
				}
			}
			for i := 0; i < ops; i++ {
				var k uint64
				switch rng.Intn(24) {
				case 0:
					k = table.EmptyKey
				case 1:
					k = table.TombstoneKey
				default:
					k = uint64(rng.Intn(keyRange)) + 1
				}
				if inBatch[k] {
					// Same-key pairs inside one window have no deterministic
					// pipelined outcome to compare against: flush first.
					flushBatch("same-key boundary")
				}
				inBatch[k] = true
				id := nextID
				nextID++
				batch = append(batch, table.Request{
					Op:  []table.Op{table.Get, table.Put, table.Upsert}[rng.Intn(3)],
					Key: k, Value: uint64(rng.Intn(1 << 16)), ID: id,
				})
				if len(batch) >= 1+rng.Intn(32) {
					flushBatch("batch")
				}
			}
			flushBatch("final")
			if gp.pipeT.Len() != gp.dirT.Len() {
				t.Fatalf("size %d window %d: Len diverged: pipelined %d direct %d",
					size, window, gp.pipeT.Len(), gp.dirT.Len())
			}
			sp, sd := gp.pipeT.NewSync(), gp.dirT.NewSync()
			for k := uint64(1); k <= uint64(keyRange); k++ {
				vp, okp := sp.Get(k)
				vd, okd := sd.Get(k)
				if vp != vd || okp != okd {
					t.Fatalf("size %d window %d key %d: pipelined (%d,%v) direct (%d,%v)",
						size, window, k, vp, okp, vd, okd)
				}
			}
		}
	}
}

// TestDirectIsConstructionTime pins where the execution mode comes from: the
// table's Config, copied into every handle. A GovernorDirect handle answers
// each batch in submission order and leaves nothing pending after any Submit;
// a GovernorOff handle holds requests in its prefetch window until a drain.
// Over three regions (DRAMHiT-P's read-view shape) as over one. "auto" is no
// longer a mode.
func TestDirectIsConstructionTime(t *testing.T) {
	keys := workload.UniqueKeys(21, 64)
	for _, regions := range []int{1, 3} {
		dir := newRegionTable(Config{Slots: 4096, Governor: table.GovernorDirect}, regions)
		dir.NewHandle().PutBatch(keys, keys)
		h := dir.NewHandle()
		reqs := make([]table.Request, len(keys))
		resps := make([]table.Response, len(keys))
		for i, k := range keys {
			reqs[i] = table.Request{Op: table.Get, Key: k, ID: uint64(i)}
		}
		for start := 0; start < len(reqs); start += 5 {
			batch := reqs[start:min(start+5, len(reqs))]
			n, nr := h.Submit(batch, resps)
			if n != len(batch) || nr != len(batch) || h.Pending() != 0 {
				t.Fatalf("regions %d: direct Submit of %d took %d, answered %d, left %d pending",
					regions, len(batch), n, nr, h.Pending())
			}
			for i, r := range resps[:nr] {
				if want := batch[i]; r.ID != want.ID || !r.Found || r.Value != want.Key {
					t.Fatalf("regions %d: response %d is %+v, want ID %d value %d", regions, i, r, want.ID, want.Key)
				}
			}
		}

		off := newRegionTable(Config{Slots: 4096}, regions).NewHandle()
		if n, nr := off.Submit(reqs[:4], resps); n != 4 || nr != 0 || off.Pending() != 4 {
			t.Fatalf("regions %d: pipelined Submit of 4 took %d, answered %d, left %d pending", regions, n, nr, off.Pending())
		}
	}
	if m, err := table.ParseGovernor("auto"); err == nil {
		t.Fatalf(`ParseGovernor("auto") = %v, want an error`, m)
	}
}

// TestGovernorOffIsUngoverned pins the zero value: GovernorOff names no mode,
// so the table's size picks it. The same 64-slot config runs direct mode
// when its slot array is within the size rule's bound and the ring when the
// bound is below it, on the table and on every handle.
func TestGovernorOffIsUngoverned(t *testing.T) {
	for _, bound := range []uint64{0, 64 * slotBytes} {
		withDirectMax(t, bound)
		tbl := New(Config{Slots: 64})
		if want := bound != 0; tbl.direct != want || tbl.NewHandle().direct != want {
			t.Fatalf("bound %d: GovernorOff table direct %v, handle direct %v, want %v",
				bound, tbl.direct, tbl.NewHandle().direct, want)
		}
	}
}

// TestExecutionFollowsIndexSize pins how New picks a flat table's execution
// when the config leaves it to the table: direct mode up to a 4 MiB slot
// array, the ring above it. A bucket table never runs direct,
// GovernorDirect still forces direct at any size, and NewView keeps the mode
// its config names.
func TestExecutionFollowsIndexSize(t *testing.T) {
	withDirectMax(t, 4<<20)
	const limit = (4 << 20) / slotBytes // 2^18 slots
	for _, c := range []struct {
		slots  uint64
		direct bool
	}{{64, true}, {limit / 2, true}, {limit, true}, {limit + 1, false}, {2 * limit, false}} {
		tbl := New(Config{Slots: c.slots})
		if tbl.Direct() != c.direct || tbl.NewHandle().direct != c.direct {
			t.Errorf("%d slots (%d bytes): direct %v, want %v", c.slots, c.slots*slotBytes, tbl.Direct(), c.direct)
		}
	}

	if tbl := New(Config{Slots: 2 * limit, Governor: table.GovernorDirect}); !tbl.Direct() {
		t.Error("GovernorDirect above the bound runs the ring")
	}
	if tbl := New(Config{Slots: 64, Layout: table.LayoutBucket}); tbl.Direct() {
		t.Error("a bucket table runs direct")
	}
	view := NewView(Config{Slots: 64}, Regions{Arrays: []*slotarr.Array{slotarr.New(64)}, Side: new(slotarr.SidePair)})
	if view.Direct() {
		t.Error("a GovernorOff view runs direct")
	}
}

// TestGovernorConfigWiring pins the constructed handle state: the execution
// mode is copied from the table's Config into every handle.
func TestGovernorConfigWiring(t *testing.T) {
	dir := New(Config{Slots: 64, Governor: table.GovernorDirect})
	if h := dir.NewHandle(); !h.direct {
		t.Fatal("GovernorDirect handle did not start in direct mode")
	}
}

// TestDirectSubmitZeroAlloc pins the direct op path's zero-allocation
// guarantee (acceptance criterion: direct mode allocates nothing per op).
func TestDirectSubmitZeroAlloc(t *testing.T) {
	tbl := New(Config{Slots: 1 << 12, Governor: table.GovernorDirect})
	h := tbl.NewHandle()
	keys := workload.UniqueKeys(5, 512)
	reqs := make([]table.Request, len(keys))
	for i, k := range keys {
		reqs[i] = table.Request{Op: table.Upsert, Key: k, Value: 1, ID: uint64(i)}
	}
	resps := make([]table.Response, len(keys))
	if avg := testing.AllocsPerRun(100, func() {
		rem := reqs
		for len(rem) > 0 {
			n, _ := h.Submit(rem, resps)
			rem = rem[n:]
		}
	}); avg != 0 {
		t.Fatalf("direct Upsert Submit allocates %.1f per run, want 0", avg)
	}
	for i, k := range keys {
		reqs[i] = table.Request{Op: table.Get, Key: k, ID: uint64(i)}
	}
	if avg := testing.AllocsPerRun(100, func() {
		rem := reqs
		for len(rem) > 0 {
			n, _ := h.Submit(rem, resps)
			rem = rem[n:]
		}
	}); avg != 0 {
		t.Fatalf("direct Get Submit allocates %.1f per run, want 0", avg)
	}
}
