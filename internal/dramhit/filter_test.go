package dramhit

import (
	"math/rand"
	"sync"
	"testing"

	"dramhit/internal/hashfn"
	"dramhit/internal/table"
	"dramhit/internal/workload"
)

// filterPair drives two SWAR tables — one per probe filter — through the
// same request stream with the same flush boundaries and asserts
// bit-identical behaviour: every response (order included; the tag gate
// preserves the traversal, so reprobe re-enqueue patterns and hence
// completion order must match) and the core Stats counters. On top of the
// core equality it pins the filter's accounting identity: every line visit
// is either tag-skipped or key-loaded, so KeyLines(tags) + TagSkips(tags)
// must equal KeyLines(none).
type filterPair struct {
	t            *testing.T
	none, tags   *Handle
	rNone, rTags []table.Response
	nNone, nTags int
	noneT, tagsT *Table
}

func newFilterPair(t *testing.T, slots uint64, window, respCap int) *filterPair {
	tn := New(Config{Slots: slots, PrefetchWindow: window, ProbeFilter: table.FilterNone})
	tt := New(Config{Slots: slots, PrefetchWindow: window, ProbeFilter: table.FilterTags})
	return &filterPair{
		t:     t,
		noneT: tn,
		tagsT: tt,
		none:  tn.NewHandle(),
		tags:  tt.NewHandle(),
		rNone: make([]table.Response, respCap),
		rTags: make([]table.Response, respCap),
	}
}

func (fp *filterPair) compare(what string) {
	fp.t.Helper()
	if fp.nNone != fp.nTags {
		fp.t.Fatalf("%s: none wrote %d responses, tags %d", what, fp.nNone, fp.nTags)
	}
	for i := 0; i < fp.nNone; i++ {
		if fp.rNone[i] != fp.rTags[i] {
			fp.t.Fatalf("%s: response %d diverged: none %+v tags %+v", what, i, fp.rNone[i], fp.rTags[i])
		}
	}
	fp.nNone, fp.nTags = 0, 0
	sn, st := fp.none.Stats(), fp.tags.Stats()
	if sn.Core() != st.Core() {
		fp.t.Fatalf("%s: core stats diverged:\nnone %+v\ntags %+v", what, sn, st)
	}
	if sn.TagSkips != 0 || sn.TagHits != 0 || sn.TagFalse != 0 {
		fp.t.Fatalf("%s: none mode counted tag events: %+v", what, sn)
	}
	if st.KeyLines+st.TagSkips != sn.KeyLines {
		fp.t.Fatalf("%s: visit accounting broken: tags KeyLines %d + TagSkips %d != none KeyLines %d",
			what, st.KeyLines, st.TagSkips, sn.KeyLines)
	}
	if st.TagHits+st.TagFalse > st.KeyLines {
		fp.t.Fatalf("%s: admitted-line outcomes %d+%d exceed KeyLines %d",
			what, st.TagHits, st.TagFalse, st.KeyLines)
	}
}

func (fp *filterPair) submit(reqs []table.Request) {
	fp.t.Helper()
	remN, remT := reqs, reqs
	for len(remN) > 0 || len(remT) > 0 {
		if len(remN) > 0 {
			n, nr := fp.none.Submit(remN, fp.rNone[fp.nNone:])
			remN = remN[n:]
			fp.nNone += nr
		}
		if len(remT) > 0 {
			n, nr := fp.tags.Submit(remT, fp.rTags[fp.nTags:])
			remT = remT[n:]
			fp.nTags += nr
		}
	}
}

func (fp *filterPair) flush() {
	fp.t.Helper()
	for {
		n, done := fp.none.Flush(fp.rNone[fp.nNone:])
		fp.nNone += n
		if done {
			break
		}
	}
	for {
		n, done := fp.tags.Flush(fp.rTags[fp.nTags:])
		fp.nTags += n
		if done {
			break
		}
	}
}

// TestFilterEquivalenceProperty is the tags-vs-none property test: over
// randomized mixed workloads — all four ops, reserved keys, dense
// collisions, tombstone churn, wrap-around sizes, single-line tables and
// table-full failures — the two filters must produce identical responses in
// identical order and identical core Stats, while the filter counters obey
// the per-visit accounting identity.
func TestFilterEquivalenceProperty(t *testing.T) {
	sizes := []uint64{3, 4, 5, 16, 37, 251, 1024}
	windows := []int{1, 4, 16}
	for _, size := range sizes {
		for _, window := range windows {
			rng := rand.New(rand.NewSource(int64(size)*61 + int64(window)))
			keyRange := int(size) * 2
			var batch []table.Request
			var nextID uint64
			ops := 4000
			if size >= 1024 {
				ops = 20000
			}
			fp := newFilterPair(t, size, window, ops+64)
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
				op := table.Op(rng.Intn(4))
				id := nextID
				nextID++
				batch = append(batch, table.Request{Op: op, Key: k, Value: uint64(rng.Intn(1 << 16)), ID: id})
				if len(batch) >= 1+rng.Intn(32) {
					fp.submit(batch)
					batch = batch[:0]
					if rng.Intn(4) == 0 {
						fp.flush()
						fp.compare("mid-run")
					}
				}
			}
			fp.submit(batch)
			fp.flush()
			fp.compare("final")
			if fp.noneT.Len() != fp.tagsT.Len() {
				t.Fatalf("size %d window %d: Len diverged: none %d tags %d",
					size, window, fp.noneT.Len(), fp.tagsT.Len())
			}
		}
	}
}

// TestFilterEquivalenceTableScan cross-checks final placement: after an
// identical deterministic workload the two filters must have claimed the
// same slots with the same keys, and every live slot of the tagged table
// must carry its key's published fingerprint.
func TestFilterEquivalenceTableScan(t *testing.T) {
	fp := newFilterPair(t, 512, 8, 30064)
	rng := rand.New(rand.NewSource(77))
	var batch []table.Request
	for i := 0; i < 30000; i++ {
		k := uint64(rng.Intn(700)) + 1
		batch = append(batch, table.Request{Op: table.Op(rng.Intn(4)), Key: k, Value: 7, ID: uint64(i)})
		if len(batch) == 24 {
			fp.submit(batch)
			batch = batch[:0]
		}
	}
	fp.submit(batch)
	fp.flush()
	fp.compare("scan")
	for i := uint64(0); i < 512; i++ {
		kn, kt := fp.noneT.regs[0].arr.Key(i), fp.tagsT.regs[0].arr.Key(i)
		if kn != kt {
			t.Fatalf("slot %d: none key %#x, tags key %#x", i, kn, kt)
		}
		if kt != table.EmptyKey && kt != table.TombstoneKey {
			if got, want := fp.tagsT.regs[0].arr.Tag(i), table.TagOf(hashfn.City64(kt)); got != want {
				t.Fatalf("slot %d key %d: tag %d, want %d", i, kt, got, want)
			}
		}
	}
}

// TestFilterClaimRaces hammers the tag-gated claim path under -race: many
// handles race Upserts over a hot key set on a FilterTags table. The
// must-check-zero rule has to carry requests through the claim→publish
// window — a dropped upsert (false negative) would show up as a short
// count, a double claim as a duplicate slot.
func TestFilterClaimRaces(t *testing.T) {
	tbl := New(Config{Slots: 4096, ProbeFilter: table.FilterTags})
	keys := workload.UniqueKeys(8, 64)
	const goroutines = 8
	const rounds = 150
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
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
		if v, ok := s.Get(k); !ok || v != goroutines*rounds {
			t.Fatalf("key %d: count (%d, %v), want %d", k, v, ok, goroutines*rounds)
		}
	}
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
		if got, want := tbl.regs[0].arr.Tag(i), table.TagOf(hashfn.City64(k)); got != want {
			t.Fatalf("slot %d key %d: tag %d, want %d", i, k, got, want)
		}
	}
	if len(seen) != len(keys) {
		t.Fatalf("table holds %d live keys, want %d", len(seen), len(keys))
	}
}

// TestFilterMixedOpRaces races all four ops across handles on one
// FilterTags table and on a FilterNone table fed the same per-goroutine
// streams; both must uphold the structural invariants whatever
// interleaving the scheduler picks (responses are not comparable across
// interleavings, so the assertions are invariant-based).
func TestFilterMixedOpRaces(t *testing.T) {
	for _, filter := range []table.ProbeFilter{table.FilterTags, table.FilterNone} {
		tbl := New(Config{Slots: 1 << 12, ProbeFilter: filter})
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
				t.Fatalf("filter %v: key %d claimed twice", filter, k)
			}
			seen[k] = true
			live++
		}
		if got := int(tbl.live.Load()); got != live {
			t.Fatalf("filter %v: live counter %d, scan found %d", filter, got, live)
		}
	}
}

// TestFilterSkipsNegativeLookups pins the headline win: on a table at
// moderate fill probed with keys that were never inserted, the tag filter
// must reject most probe-chain lines without loading them — TagSkips
// dominates and KeyLines collapses versus the unfiltered run.
func TestFilterSkipsNegativeLookups(t *testing.T) {
	const slots = 1 << 12
	fp := newFilterPair(t, slots, 16, 4096)
	present := workload.UniqueKeys(3, slots*3/4)
	vals := make([]uint64, len(present))
	for i := range vals {
		vals[i] = 1
	}
	fp.tags.PutBatch(present, vals)
	fp.none.PutBatch(present, vals)
	fp.flush()
	fp.nNone, fp.nTags = 0, 0

	// Reset counters by reading a baseline, then probe absent keys.
	baseNone, baseTags := fp.none.Stats(), fp.tags.Stats()
	absent := workload.MissKeys(3, slots*3/4, 4096)
	var batch []table.Request
	for i, k := range absent {
		batch = append(batch, table.Request{Op: table.Get, Key: k, ID: uint64(i)})
	}
	fp.submit(batch)
	fp.flush()
	fp.compare("negative lookups")

	sn := fp.none.Stats()
	st := fp.tags.Stats()
	if hits := st.Hits - baseTags.Hits; hits != 0 {
		t.Fatalf("absent keys produced %d hits", hits)
	}
	keyLinesNone := sn.KeyLines - baseNone.KeyLines
	keyLinesTags := st.KeyLines - baseTags.KeyLines
	skips := st.TagSkips - baseTags.TagSkips
	if skips == 0 {
		t.Fatal("negative lookups produced no tag skips")
	}
	if keyLinesTags*2 >= keyLinesNone {
		t.Fatalf("filter saved too little: tags loaded %d key lines, none %d (skips %d)",
			keyLinesTags, keyLinesNone, skips)
	}
}

// TestFilterConfigWiring pins the Config contract: tags is the default,
// scalar kernels are forced to none, and the effective filter is exposed.
func TestFilterConfigWiring(t *testing.T) {
	if def := New(Config{Slots: 16}); def.Filter() != table.FilterTags {
		t.Fatalf("default Filter() = %v, want tags", def.Filter())
	}
	if n := New(Config{Slots: 16, ProbeFilter: table.FilterNone}); n.Filter() != table.FilterNone {
		t.Fatalf("explicit none: Filter() = %v", n.Filter())
	}
	sc := New(Config{Slots: 16, ProbeKernel: table.KernelScalar, ProbeFilter: table.FilterTags})
	if sc.Filter() != table.FilterNone {
		t.Fatalf("scalar kernel: Filter() = %v, want forced none", sc.Filter())
	}
	if sc.regs[0].arr.HasTags() {
		t.Fatal("scalar table allocated a tag sidecar")
	}
	if !New(Config{Slots: 16}).regs[0].arr.HasTags() {
		t.Fatal("tags table missing its sidecar")
	}
}
