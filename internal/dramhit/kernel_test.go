package dramhit

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"dramhit/internal/hashfn"
	"dramhit/internal/slotarr"
	"dramhit/internal/table"
	"dramhit/internal/workload"
)

// refTable is the reference model the line-granular probe is checked
// against: a sequential table that probes one slot at a time. It routes a
// key as the table does, from the same home slot, and counts lines the way
// the visit accounting defines them: a request touches its home line when it
// is submitted, and every step of the walk onto a different line is one
// Reprobe and one more Line, whether the ring walks into that line in place
// or re-enqueues. The full-table bound is checked before a step's crossing
// is counted. Reserved keys live in side slots and touch no line beyond the
// home line. As in the table, an insert claims the first empty slot of its
// chain, and a deleted key's slot stays a tombstone.
type refTable struct {
	keys, vals []uint64
	used       uint64            // slots claimed: keys and tombstones
	side       map[uint64]uint64 // the reserved keys present
	stats      Stats             // KeyLines and CASAttempts are not modelled
}

func newRefTable(slots uint64) *refTable {
	return &refTable{keys: make([]uint64, slots), vals: make([]uint64, slots), side: map[uint64]uint64{}}
}

// do applies r and returns its response; only a Get's is ever delivered.
func (m *refTable) do(r table.Request) table.Response {
	m.stats.Lines++
	v, found, fail := m.probe(r)
	switch r.Op {
	case table.Get:
		m.stats.Gets++
	case table.Put:
		m.stats.Puts++
	case table.Upsert:
		m.stats.Upserts++
	case table.Delete:
		m.stats.Deletes++
	}
	if found && (r.Op == table.Get || r.Op == table.Delete) {
		m.stats.Hits++
	}
	if fail {
		m.stats.Failed++
	}
	return table.Response{ID: r.ID, Value: v, Found: found}
}

func (m *refTable) probe(r table.Request) (v uint64, found, fail bool) {
	if table.IsReservedKey(r.Key) {
		old, ok := m.side[r.Key]
		switch r.Op {
		case table.Get:
			return old, ok, false
		case table.Put:
			m.side[r.Key] = r.Value
		case table.Upsert:
			m.side[r.Key] = old + r.Value
		case table.Delete:
			delete(m.side, r.Key)
			return 0, ok, false
		}
		return m.side[r.Key], true, false
	}
	size := uint64(len(m.keys))
	_, i := hashfn.FastrangeSplit(hashfn.City64(r.Key), 1, size)
	line := slotarr.LineOf(i)
	for probes := uint64(0); probes < size; probes++ {
		if slotarr.LineOf(i) != line {
			line = slotarr.LineOf(i)
			m.stats.Reprobes++
			m.stats.Lines++
		}
		switch m.keys[i] {
		case r.Key:
			switch r.Op {
			case table.Get:
				return m.vals[i], true, false
			case table.Put:
				m.vals[i] = r.Value
			case table.Upsert:
				m.vals[i] += r.Value
			case table.Delete:
				m.keys[i] = table.TombstoneKey
				return 0, true, false
			}
			return m.vals[i], true, false
		case table.EmptyKey:
			if r.Op == table.Get || r.Op == table.Delete {
				return 0, false, false
			}
			m.keys[i], m.vals[i] = r.Key, r.Value
			m.used++
			return r.Value, true, false
		}
		if i++; i == size {
			i = 0
		}
	}
	// Every slot inspected: a Get or Delete misses, an insert finds the
	// table full.
	return 0, false, r.Op == table.Put || r.Op == table.Upsert
}

// modelled drops the counters the model does not keep.
func modelled(s Stats) Stats {
	s.KeyLines, s.CASAttempts = 0, 0
	return s
}

// refRun drives one handle through a request stream in batches, keeping
// every Get response in completion order.
type refRun struct {
	t     *testing.T
	tbl   *Table
	h     *Handle
	resps []table.Response
	buf   []table.Response
}

func newRefRun(t *testing.T, slots uint64, window int) *refRun {
	tbl := New(Config{Slots: slots, PrefetchWindow: window})
	return &refRun{t: t, tbl: tbl, h: tbl.NewHandle(), buf: make([]table.Response, 64)}
}

func (r *refRun) submit(reqs []table.Request) {
	for len(reqs) > 0 {
		n, nr := r.h.Submit(reqs, r.buf)
		r.resps = append(r.resps, r.buf[:nr]...)
		reqs = reqs[n:]
	}
}

func (r *refRun) flush() {
	for done := false; !done; {
		var nr int
		nr, done = r.h.Flush(r.buf)
		r.resps = append(r.resps, r.buf[:nr]...)
	}
}

// contents returns the model's live keys with their values, reserved keys
// included.
func (m *refTable) contents() map[uint64]uint64 {
	live := map[uint64]uint64{}
	for i, k := range m.keys {
		if k != table.EmptyKey && k != table.TombstoneKey {
			live[k] = m.vals[i]
		}
	}
	for k, v := range m.side {
		live[k] = v
	}
	return live
}

// checkPlacement requires the table's slots to hold exactly the model's keys
// and values, and its Fill and contents over keys 1..keyRange to be the
// model's.
func (r *refRun) checkPlacement(what string, m *refTable, keyRange int) {
	r.t.Helper()
	arr := r.tbl.regs[0].arr
	for i, k := range m.keys {
		if got := arr.Key(uint64(i)); got != k {
			r.t.Fatalf("%s: slot %d holds key %#x, model %#x", what, i, got, k)
		}
		if k != table.EmptyKey && k != table.TombstoneKey && arr.Value(uint64(i)) != m.vals[i] {
			r.t.Fatalf("%s: slot %d (key %d) holds value %d, model %d", what, i, k, arr.Value(uint64(i)), m.vals[i])
		}
	}
	if got, want := r.tbl.Fill(), float64(m.used)/float64(len(m.keys)); got != want {
		r.t.Fatalf("%s: Fill %v, model %v", what, got, want)
	}
	r.checkContents(what, m, keyRange)
}

// checkContents requires every key in 1..keyRange and every reserved key to
// read back as the model holds it, and Len to count the model's live keys.
func (r *refRun) checkContents(what string, m *refTable, keyRange int) {
	r.t.Helper()
	want := m.contents()
	keys := []uint64{table.EmptyKey, table.TombstoneKey}
	for k := 1; k <= keyRange; k++ {
		keys = append(keys, uint64(k))
	}
	s := r.tbl.NewSync()
	for _, k := range keys {
		v, ok := s.Get(k)
		if w, wok := want[k]; ok != wok || v != w {
			r.t.Fatalf("%s: key %#x reads (%d, %v), model (%d, %v)", what, k, v, ok, w, wok)
		}
	}
	if r.tbl.Len() != len(want) {
		r.t.Fatalf("%s: Len %d, model %d", what, r.tbl.Len(), len(want))
	}
}

// refStream draws a mixed request stream: all four ops over keys 1..keyRange,
// with one request in ten on a reserved key.
func refStream(rng *rand.Rand, n, keyRange int) []table.Request {
	reqs := make([]table.Request, n)
	for i := range reqs {
		k := uint64(rng.Intn(keyRange)) + 1
		switch rng.Intn(20) {
		case 0:
			k = table.EmptyKey
		case 1:
			k = table.TombstoneKey
		}
		reqs[i] = table.Request{Op: table.Op(rng.Intn(4)), Key: k, Value: uint64(rng.Intn(1 << 16)), ID: uint64(i)}
	}
	return reqs
}

// TestKernelEquivalenceProperty checks the line-granular probe against the
// slot-by-slot model over randomized mixed streams: all four ops, reserved
// keys, dense collisions, tombstone churn, wrap-around on tables whose size
// is not a multiple of the line width, single-line tables, and table-full
// failures.
//
// At window 1 the pipeline is sequential, so it must agree with the model
// request for request: the same Get responses in the same order, the same
// Hits, Failed, Lines and Reprobes at every flush, and the same slot
// placement at the end. At windows 4 and 16 requests complete out of order
// but one handle's requests for one key still complete in submission order,
// so on streams that cannot fill the table every Get's response and the
// final contents must match, and every line beyond a request's home line
// must be a counted crossing.
func TestKernelEquivalenceProperty(t *testing.T) {
	for _, size := range []uint64{3, 4, 5, 16, 37, 251, 1024} {
		rng := rand.New(rand.NewSource(int64(size) * 31))
		ops := 4000
		if size >= 1024 {
			ops = 20000
		}
		// Keys ~2x the table size: dense collisions, frequent misses, and
		// (on the small tables) table-full inserts.
		keyRange := int(size) * 2
		reqs := refStream(rng, ops, keyRange)
		m, run := newRefTable(size), newRefRun(t, size, 1)
		var want []table.Response
		for len(reqs) > 0 {
			batch := reqs[:min(len(reqs), 1+rng.Intn(32))]
			reqs = reqs[len(batch):]
			for _, r := range batch {
				if resp := m.do(r); r.Op == table.Get {
					want = append(want, resp)
				}
			}
			run.submit(batch)
			if rng.Intn(4) != 0 && len(reqs) > 0 {
				continue
			}
			run.flush()
			what := fmt.Sprintf("size %d window 1, %d requests left", size, len(reqs))
			if len(run.resps) != len(want) {
				t.Fatalf("%s: %d Get responses, model %d", what, len(run.resps), len(want))
			}
			for i := range want {
				if run.resps[i] != want[i] {
					t.Fatalf("%s: Get response %d is %+v, model %+v", what, i, run.resps[i], want[i])
				}
			}
			if got := modelled(run.h.Stats()); got != m.stats {
				t.Fatalf("%s: stats diverged:\ntable %+v\nmodel %+v", what, got, m.stats)
			}
		}
		run.checkPlacement(fmt.Sprintf("size %d window 1", size), m, keyRange)
		if size < 251 && m.stats.Failed == 0 {
			t.Errorf("size %d: no insert found the table full", size)
		}

		for _, window := range []int{4, 16} {
			what := fmt.Sprintf("size %d window %d", size, window)
			m, run := newRefTable(size), newRefRun(t, size, window)
			// The stream ends once the model has claimed all slots but one.
			// Claims do not depend on the order different keys complete in,
			// so the table keeps an empty slot too, and no probe exhausts it.
			keyRange := max(int(size)/2, 1)
			want := map[uint64]table.Response{}
			var stream []table.Request
			for _, r := range refStream(rng, ops, keyRange) {
				if resp := m.do(r); r.Op == table.Get {
					want[r.ID] = resp
				}
				if stream = append(stream, r); m.used == size-1 {
					break
				}
			}
			for rest := stream; len(rest) > 0; {
				batch := rest[:min(len(rest), 1+rng.Intn(32))]
				rest = rest[len(batch):]
				run.submit(batch)
				if rng.Intn(4) == 0 {
					run.flush()
				}
			}
			run.flush()
			if len(run.resps) != len(want) {
				t.Fatalf("%s: %d Get responses, model %d", what, len(run.resps), len(want))
			}
			for _, resp := range run.resps {
				if resp != want[resp.ID] {
					t.Fatalf("%s: Get %d answered %+v, model %+v", what, resp.ID, resp, want[resp.ID])
				}
			}
			st := run.h.Stats()
			if st.Ops() != uint64(len(stream)) || st.Hits != m.stats.Hits || st.Failed != 0 {
				t.Fatalf("%s: %d ops, %d hits, %d failed; model %d, %d, 0", what, st.Ops(), st.Hits, st.Failed, len(stream), m.stats.Hits)
			}
			if st.Lines != uint64(len(stream))+st.Reprobes {
				t.Fatalf("%s: Lines %d, want %d requests + %d reprobes", what, st.Lines, len(stream), st.Reprobes)
			}
			run.checkContents(what, m, keyRange)
		}
	}
}

// TestKernelEquivalenceTableScan runs a longer window-1 stream on a mid-size
// table, with dense collisions and more keys than slots, and then requires
// the table to have claimed exactly the model's slots with the model's keys
// and values: both probe in the same order, so placement, not just content,
// must agree.
func TestKernelEquivalenceTableScan(t *testing.T) {
	const size = 512
	m, run := newRefTable(size), newRefRun(t, size, 1)
	rng := rand.New(rand.NewSource(99))
	var batch []table.Request
	for i := 0; i < 30000; i++ {
		r := table.Request{Op: table.Op(rng.Intn(4)), Key: uint64(rng.Intn(700)) + 1, Value: 7, ID: uint64(i)}
		m.do(r)
		if batch = append(batch, r); len(batch) == 24 {
			run.submit(batch)
			batch = batch[:0]
		}
	}
	run.submit(batch)
	run.flush()
	if got := modelled(run.h.Stats()); got != m.stats {
		t.Fatalf("stats diverged:\ntable %+v\nmodel %+v", got, m.stats)
	}
	run.checkPlacement("scan", m, 700)
}

// TestKernelClaimRaces hammers the claim-CAS re-snapshot path: many
// handles race Puts and Upserts over a small hot key set. Run under -race
// this exercises the snapshot/CAS/re-snapshot protocol; the assertions check
// that no key was ever claimed twice and upsert counts aggregated exactly.
func TestKernelClaimRaces(t *testing.T) {
	tbl := New(Config{Slots: 4096})
	keys := workload.UniqueKeys(8, 64)
	const goroutines = 8
	const rounds = 150
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			h := tbl.NewHandle()
			for r := 0; r < rounds; r++ {
				h.UpsertBatch(keys, 1)
			}
		}(g)
	}
	wg.Wait()

	s := tbl.NewSync()
	for _, k := range keys {
		if v, ok := s.Get(k); !ok || v != goroutines*rounds {
			t.Fatalf("key %d: count (%d, %v), want %d", k, v, ok, goroutines*rounds)
		}
	}
	// No key may occupy two slots: a lost claim race that failed to
	// re-verify would leave a duplicate.
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

// TestKernelMixedOpRaces races all four ops across handles on one table; invariants (no duplicate claims, live count equals a
// final scan) must hold whatever interleaving the scheduler picks.
func TestKernelMixedOpRaces(t *testing.T) {
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
	if got := int(tbl.regs[0].live.Load()); got != live {
		t.Fatalf("live counter %d, scan found %d", got, live)
	}
}
