package dramhitp

import (
	"sync"
	"testing"

	"dramhit/internal/table"
	"dramhit/internal/workload"
)

// newFilterTable builds a single-producer single-consumer table: with one
// writer and one partition owner per consumer thread, apply order — and
// therefore slot placement — is deterministic, so a FilterNone table and a
// FilterTags table fed the same update stream hold byte-identical key
// arrays. That determinism is what lets the equivalence tests below demand
// response-by-response equality rather than just set equality.
func newFilterTable(n uint64, filter table.ProbeFilter) *Table {
	t := New(Config{
		Slots:                 n,
		Producers:             1,
		Consumers:             2,
		PartitionsPerConsumer: 2,
		ProbeKernel:           table.KernelSWAR,
		ProbeFilter:           filter,
	})
	t.Start()
	return t
}

// TestPFilterReadPipelineEquivalence is the dramhitp analogue of the dramhit
// filter property test: tags and none tables populated identically must
// return identical responses in identical order through the pipelined read
// path, and the filter counters must satisfy the accounting identity
// KeyLines(tags) + TagSkips(tags) == KeyLines(none) — every line visit is
// either admitted to the key lanes or skipped, never both, never neither.
func TestPFilterReadPipelineEquivalence(t *testing.T) {
	mk := func(filter table.ProbeFilter) *Table {
		tbl := newFilterTable(4096, filter)
		w := tbl.NewWriteHandle()
		keys := workload.UniqueKeys(42, 2500) // ~61% fill: real reprobe chains
		for i, k := range keys {
			w.Put(k, k^7)
			if i%9 == 0 {
				w.Delete(k) // tombstones leave stale (nonmatching-safe) tags
			}
			if i%13 == 0 {
				w.Upsert(k, 3)
			}
		}
		w.Barrier()
		w.Close()
		return tbl
	}
	noneT, tagsT := mk(table.FilterNone), mk(table.FilterTags)
	defer noneT.Close()
	defer tagsT.Close()

	if noneT.Filter() != table.FilterNone || tagsT.Filter() != table.FilterTags {
		t.Fatalf("filter wiring: none=%v tags=%v", noneT.Filter(), tagsT.Filter())
	}

	// Hits, deleted keys, and structural misses in one stream.
	probe := append(append([]uint64{}, workload.UniqueKeys(42, 2500)...),
		workload.MissKeys(42, 2500, 800)...)
	rn, rt := noneT.NewReadHandle(), tagsT.NewReadHandle()
	resN := make([]table.Response, len(probe)+8)
	resT := make([]table.Response, len(probe)+8)
	drive := func(r *ReadHandle, res []table.Response) int {
		reqs := make([]table.Request, len(probe))
		for i, k := range probe {
			reqs[i] = table.Request{Op: table.Get, Key: k, ID: uint64(i)}
		}
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
				return n
			}
		}
	}
	nn, nt := drive(rn, resN), drive(rt, resT)
	if nn != nt {
		t.Fatalf("response counts diverged: none %d tags %d", nn, nt)
	}
	for i := 0; i < nn; i++ {
		if resN[i] != resT[i] {
			t.Fatalf("response %d diverged: none %+v tags %+v", i, resN[i], resT[i])
		}
	}
	if rn.Stats().Gets != rt.Stats().Gets || rn.Stats().Hits != rt.Stats().Hits {
		t.Fatalf("reader stats diverged: none gets=%d hits=%d, tags gets=%d hits=%d",
			rn.Stats().Gets, rn.Stats().Hits, rt.Stats().Gets, rt.Stats().Hits)
	}

	// None mode must not touch the tag counters at all.
	if rn.Stats().TagSkips != 0 || rn.Stats().TagHits != 0 || rn.Stats().TagFalse != 0 {
		t.Fatalf("none-mode reader has tag counters: %+v", rn.Stats())
	}
	// The accounting identity: tags mode visits exactly the lines none mode
	// visits; each is either gated out or admitted.
	if got := rt.Stats().KeyLines + rt.Stats().TagSkips; got != rn.Stats().KeyLines {
		t.Fatalf("line accounting: tags KeyLines+TagSkips = %d, none KeyLines = %d (tags %+v)",
			got, rn.Stats().KeyLines, rt.Stats())
	}
	if rt.Stats().TagHits+rt.Stats().TagFalse > rt.Stats().KeyLines {
		t.Fatalf("admitted-line accounting: hits %d + false %d > keylines %d",
			rt.Stats().TagHits, rt.Stats().TagFalse, rt.Stats().KeyLines)
	}
	if rt.Stats().TagSkips == 0 {
		t.Fatal("tags reader skipped zero lines over 800 structural misses at 61% fill")
	}

	// Write-path counters: the tags table's owners gated their probe loops,
	// the none table's owners never touched the tag counters.
	wn, wt := noneT.WriteFilterStats(), tagsT.WriteFilterStats()
	if wn.TagSkips != 0 || wn.TagHits != 0 || wn.TagFalse != 0 {
		t.Fatalf("none-mode write stats have tag counters: %+v", wn)
	}
	if wt.KeyLines == 0 || wt.KeyLines+wt.TagSkips != wn.KeyLines {
		t.Fatalf("write-path line accounting: tags %+v vs none %+v", wt, wn)
	}
}

// TestPFilterSyncGetCounts pins the direct (non-pipelined) Get path: it must
// consult the same filter and account its line visits in the caller's
// handle-local Stats.
func TestPFilterSyncGetCounts(t *testing.T) {
	tbl := newFilterTable(4096, table.FilterTags)
	defer tbl.Close()
	w := tbl.NewWriteHandle()
	keys := workload.UniqueKeys(5, 3000) // ~73% fill
	for _, k := range keys {
		w.Put(k, k+1)
	}
	w.Barrier()
	w.Close()

	r := tbl.NewReadHandle()
	for _, k := range keys[:500] {
		if v, ok := r.Get(k); !ok || v != k+1 {
			t.Fatalf("key %d: (%d, %v)", k, v, ok)
		}
	}
	hitLines := r.Stats()
	if hitLines.KeyLines == 0 {
		t.Fatal("sync Get path recorded no key-line visits")
	}
	for _, k := range workload.MissKeys(5, 3000, 500) {
		if _, ok := r.Get(k); ok {
			t.Fatalf("structural miss key %d reported found", k)
		}
	}
	if r.Stats().TagSkips == hitLines.TagSkips {
		t.Fatal("500 negative sync Gets at 73% fill produced zero tag skips")
	}
}

// TestPFilterSkipsNegativeLookups is the headline-win check on the
// partitioned reader: at high fill, negative lookups walk long clusters, and
// the tag filter must reject most of those lines from the tag word alone.
func TestPFilterSkipsNegativeLookups(t *testing.T) {
	const slots = 4096
	fill := workload.UniqueKeys(3, slots*3/4)
	mk := func(filter table.ProbeFilter) *Table {
		tbl := newFilterTable(slots, filter)
		w := tbl.NewWriteHandle()
		for _, k := range fill {
			w.Put(k, 1)
		}
		w.Barrier()
		w.Close()
		return tbl
	}
	noneT, tagsT := mk(table.FilterNone), mk(table.FilterTags)
	defer noneT.Close()
	defer tagsT.Close()

	miss := workload.MissKeys(3, len(fill), 4096)
	vals := make([]uint64, len(miss))
	found := make([]bool, len(miss))
	rn, rt := noneT.NewReadHandle(), tagsT.NewReadHandle()
	for _, r := range []*ReadHandle{rn, rt} {
		r.GetBatch(miss, vals, found)
		for i := range found {
			if found[i] {
				t.Fatalf("miss key %d reported found", miss[i])
			}
		}
	}
	if rt.Stats().TagSkips == 0 {
		t.Fatal("tags reader skipped no lines on an all-miss workload")
	}
	// A 1/255 per-lane false-positive rate must cut key-line loads by far
	// more than half on negative lookups; 2x is a very loose floor.
	if rt.Stats().KeyLines*2 >= rn.Stats().KeyLines {
		t.Fatalf("tag filter too weak: tags loaded %d key lines, none loaded %d",
			rt.Stats().KeyLines, rn.Stats().KeyLines)
	}
	if got := rt.Stats().KeyLines + rt.Stats().TagSkips; got != rn.Stats().KeyLines {
		t.Fatalf("line accounting: %d != %d", got, rn.Stats().KeyLines)
	}
}

// TestPFilterConcurrentReadersAndWriters races pipelined readers against
// delegated writers on a FilterTags table. Under -race this exercises the
// single-writer value→key→tag publication order against concurrent tag-word
// loads: a reader that sees a nonzero tag must find the key already
// published, and a reader that sees zero treats the lane as must-check, so
// no interleaving can produce a false negative for a key whose Barrier
// completed before the read.
func TestPFilterConcurrentReadersAndWriters(t *testing.T) {
	tbl := New(Config{
		Slots:                 1 << 15,
		Producers:             4,
		Consumers:             3,
		ProbeFilter:           table.FilterTags,
		PartitionsPerConsumer: 2,
	})
	tbl.Start()
	defer tbl.Close()

	const perWriter = 3000
	keys := workload.UniqueKeys(11, 4*perWriter)
	// Stable keys are barriered in before readers start: lookups for them
	// must always hit, whatever the concurrent writers are doing.
	stable := keys[:perWriter]
	wh := tbl.NewWriteHandle()
	for _, k := range stable {
		wh.Put(k, k^0xbeef)
	}
	wh.Barrier()
	wh.Close()

	var wg sync.WaitGroup
	for w := 1; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := tbl.NewWriteHandle()
			defer h.Close()
			for _, k := range keys[w*perWriter : (w+1)*perWriter] {
				h.Put(k, k^0xbeef)
			}
			h.Barrier()
		}(w)
	}
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := tbl.NewReadHandle()
			vals := make([]uint64, len(stable))
			found := make([]bool, len(stable))
			for round := 0; round < 5; round++ {
				r.GetBatch(stable, vals, found)
				for i, k := range stable {
					if !found[i] || vals[i] != k^0xbeef {
						t.Errorf("goroutine %d round %d: stable key %d got (%d, %v)",
							g, round, k, vals[i], found[i])
						return
					}
				}
			}
			if r.Stats().KeyLines == 0 {
				t.Errorf("goroutine %d: reader recorded no key-line visits", g)
			}
		}(g)
	}
	wg.Wait()

	// After all barriers, every key — including those inserted concurrently
	// with the readers — must be visible with a published, matching tag.
	r := tbl.NewReadHandle()
	vals := make([]uint64, len(keys))
	found := make([]bool, len(keys))
	r.GetBatch(keys, vals, found)
	for i, k := range keys {
		if !found[i] || vals[i] != k^0xbeef {
			t.Fatalf("key %d: (%d, %v)", k, vals[i], found[i])
		}
	}
}

// TestPFilterScalarForcedNone pins the config contract: the tag sidecar is a
// line-granular accelerator, so scalar-kernel tables must silently run
// FilterNone (and allocate no tag words) even when tags are requested.
func TestPFilterScalarForcedNone(t *testing.T) {
	tbl := New(Config{
		Slots:       1024,
		Producers:   1,
		Consumers:   1,
		ProbeKernel: table.KernelScalar,
		ProbeFilter: table.FilterTags,
	})
	if tbl.Filter() != table.FilterNone {
		t.Fatalf("scalar table filter = %v, want none", tbl.Filter())
	}
	for i := range tbl.parts {
		if tbl.parts[i].arr.HasTags() {
			t.Fatalf("scalar table partition %d allocated a tag sidecar", i)
		}
	}
	// Default SWAR tables get tags.
	def := New(Config{Slots: 1024, Producers: 1, Consumers: 1})
	if def.Filter() != table.FilterTags {
		t.Fatalf("default filter = %v, want tags", def.Filter())
	}
	for i := range def.parts {
		if !def.parts[i].arr.HasTags() {
			t.Fatalf("default table partition %d missing tag sidecar", i)
		}
	}
}
