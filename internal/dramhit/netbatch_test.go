package dramhit

import (
	"fmt"
	"math/rand"
	"testing"

	"dramhit/internal/obs"
	"dramhit/internal/table"
)

// TestByteGatekeeping pins the byte pipeline's programmer-error panics:
// submit before arming, Upsert ops, and re-arming with requests in flight.
func TestByteGatekeeping(t *testing.T) {
	h := newBucketTable(256).NewHandle()
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("SubmitBytes before OnByteComplete", func() {
		h.SubmitBytes(table.Get, 0, []byte("k"), nil)
	})
	h.OnByteComplete(func(ByteCompletion) {})
	mustPanic("SubmitBytes(Upsert)", func() {
		h.SubmitBytes(table.Upsert, 0, []byte("k"), []byte("v"))
	})
	h.SubmitBytes(table.Put, 0, []byte("k"), []byte("v"))
	mustPanic("OnByteComplete with requests in flight", func() {
		h.OnByteComplete(func(ByteCompletion) {})
	})
	h.FlushBytes()
	// Re-arming at an empty pipeline is legal.
	h.OnByteComplete(func(ByteCompletion) {})
}

// TestBytePipelineFIFO pins the property the network servers are built on:
// completions arrive in exact submission order, even when submissions
// trigger window-full drains mid-batch.
func TestBytePipelineFIFO(t *testing.T) {
	h := newBucketTable(4096).NewHandle()
	var order []uint64
	h.OnByteComplete(func(c ByteCompletion) { order = append(order, c.ID) })
	const n = 500 // many multiples of the window
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key-%04d", i%97)) // duplicates included
	}
	for i, k := range keys {
		if i%3 == 0 {
			h.SubmitBytes(table.Put, uint64(i), k, []byte("v"))
		} else {
			h.SubmitBytes(table.Get, uint64(i), k, nil)
		}
	}
	h.FlushBytes()
	if len(order) != n {
		t.Fatalf("completions = %d, want %d", len(order), n)
	}
	for i, id := range order {
		if id != uint64(i) {
			t.Fatalf("completion %d carries id %d: not FIFO", i, id)
		}
	}
	if h.PendingBytes() != 0 {
		t.Fatalf("PendingBytes = %d after flush", h.PendingBytes())
	}
}

// TestBytePipelineOracle drives a random op sequence through the async byte
// pipeline and checks every completion against a reference map mutated in
// the same submission order — valid precisely because completions are FIFO
// and resolve against table state at drain time, which equals submission
// order state for single-handle use.
func TestBytePipelineOracle(t *testing.T) {
	h := newBucketTable(1 << 14).NewHandle()
	rng := rand.New(rand.NewSource(7))
	ref := map[string]string{}
	type exp struct {
		op    table.Op
		key   string
		val   string // expected Get value
		found bool
	}
	var queue []exp
	ncomplete := 0
	h.OnByteComplete(func(c ByteCompletion) {
		e := queue[ncomplete]
		ncomplete++
		if c.ID != uint64(ncomplete-1) {
			t.Fatalf("completion id %d at position %d", c.ID, ncomplete-1)
		}
		if c.Op != e.op || c.Found != e.found {
			t.Fatalf("op %d on %q: completion (%v, found=%v), want (%v, found=%v)",
				ncomplete-1, e.key, c.Op, c.Found, e.op, e.found)
		}
		if e.op == table.Get && e.found && string(c.Value) != e.val {
			t.Fatalf("Get %q = %q, want %q", e.key, c.Value, e.val)
		}
	})

	const ops = 6000
	keyOf := func(i int) string { return fmt.Sprintf("oracle-key-%03d", i) }
	for i := 0; i < ops; i++ {
		k := keyOf(rng.Intn(200)) // hot keyspace: plenty of same-key pipelining
		switch rng.Intn(10) {
		case 0, 1, 2, 3: // Get
			v, ok := ref[k]
			queue = append(queue, exp{op: table.Get, key: k, val: v, found: ok})
			h.SubmitBytes(table.Get, uint64(i), []byte(k), nil)
		case 4, 5, 6, 7: // Put
			_, existed := ref[k]
			v := fmt.Sprintf("val-%d", i)
			ref[k] = v
			queue = append(queue, exp{op: table.Put, key: k, found: existed})
			h.SubmitBytes(table.Put, uint64(i), []byte(k), []byte(v))
		default: // Delete
			_, existed := ref[k]
			delete(ref, k)
			queue = append(queue, exp{op: table.Delete, key: k, found: existed})
			h.SubmitBytes(table.Delete, uint64(i), []byte(k), nil)
		}
		if rng.Intn(64) == 0 {
			h.FlushBytes()
		}
	}
	h.FlushBytes()
	if ncomplete != ops {
		t.Fatalf("completed %d of %d ops", ncomplete, ops)
	}
}

// TestBytePipelineMatchesSyncAPI replays one workload through the async
// pipeline and the synchronous byte API on twin tables: every result and
// the execution-model-invariant stats must agree (the async path is the
// same engine call, just prefetch-scheduled).
func TestBytePipelineMatchesSyncAPI(t *testing.T) {
	ta, ts := newBucketTable(1<<13), newBucketTable(1<<13)
	ha, hs := ta.NewHandle(), ts.NewHandle()

	type res struct {
		val   string
		found bool
	}
	var async []res
	ha.OnByteComplete(func(c ByteCompletion) {
		async = append(async, res{string(c.Value), c.Found})
	})
	var sync []res

	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 4000; i++ {
		k := []byte(fmt.Sprintf("twin-%03d", rng.Intn(300)))
		switch rng.Intn(8) {
		case 0, 1, 2: // Get
			ha.SubmitBytes(table.Get, uint64(i), k, nil)
			v, ok := hs.GetBytes(k)
			sync = append(sync, res{string(v), ok})
		case 3, 4, 5: // Put
			v := []byte(fmt.Sprintf("v%d", i))
			ha.SubmitBytes(table.Put, uint64(i), k, v)
			existed, _ := hs.PutBytes(k, v)
			sync = append(sync, res{"", existed})
		default: // Delete
			ha.SubmitBytes(table.Delete, uint64(i), k, nil)
			sync = append(sync, res{"", hs.DeleteBytes(k)})
		}
	}
	ha.FlushBytes()
	if len(async) != len(sync) {
		t.Fatalf("async completed %d, sync %d", len(async), len(sync))
	}
	for i := range async {
		af, sf := async[i], sync[i]
		if af.found != sf.found || af.val != sf.val {
			t.Fatalf("op %d diverged: async (%q, %v) vs sync (%q, %v)",
				i, af.val, af.found, sf.val, sf.found)
		}
	}
	sa, ss := ha.Stats(), hs.Stats()
	// Lines differ by design (the async path counts its prefetches); zero it.
	sa.Lines, ss.Lines = 0, 0
	if sa != ss {
		t.Fatalf("stats diverged:\nasync %+v\nsync  %+v", sa, ss)
	}
	if ta.Len() != ts.Len() {
		t.Fatalf("table lengths diverged: %d vs %d", ta.Len(), ts.Len())
	}
}

// TestByteRingHotFeedSampled pins the byte ring's hot-key feed to the
// table-side sampled feed every other submit path uses (obs.OfferSampled: one
// offer in 2^SampleShift, weighted back up), not the exact per-request Offer:
// after n submissions the sketch has been fed n rounded down to the sampling
// period, and the key every request named ranks first, by its hash.
func TestByteRingHotFeedSampled(t *testing.T) {
	reg := obs.NewWith(4096, 8)
	tbl := newBucketTable(256, func(c *Config) { c.Observe = reg })
	h := tbl.NewHandle()
	h.OnByteComplete(func(ByteCompletion) {})
	const period = 1 << obs.SampleShift
	const n = 20*period + period - 1
	key := []byte("the-hot-key")
	for i := 0; i < n; i++ {
		h.SubmitBytes(table.Get, uint64(i), key, nil)
	}
	h.FlushBytes()
	if got := h.obsw.Hot.Count(); got != n/period*period {
		t.Fatalf("sketch fed %d of %d byte submissions, want the sampled %d", got, n, n/period*period)
	}
	if top := reg.TopKeys(1); len(top) != 1 || top[0].Key != tbl.Bucket().HashOf(key) {
		t.Fatalf("top key %+v, want hash %#x", top, tbl.Bucket().HashOf(key))
	}
}

// bytePinned reports whether any of h's region engine handles holds its arena
// pin.
func bytePinned(h *Handle) bool {
	for _, bh := range h.bhs {
		if bh.Pinned() {
			return true
		}
	}
	return false
}

// TestByteRingPinnedPerBatch: the byte ring holds its arena pin exactly while
// requests are in flight — from the first SubmitBytes of a batch to the end of
// its FlushBytes — over one and three regions, batches shorter and longer than
// the window, and completion callbacks that themselves call GetBytes.
func TestByteRingPinnedPerBatch(t *testing.T) {
	for _, nreg := range []int{1, 3} {
		h := newRegionTable(Config{Slots: 1 << 12, Layout: table.LayoutBucket}, nreg).NewHandle()
		key := func(i int) []byte { return []byte(fmt.Sprintf("key-%03d", i%50)) }
		var inCallback int
		h.OnByteComplete(func(c ByteCompletion) {
			if !bytePinned(h) {
				t.Errorf("%d regions: completion %d ran unpinned", nreg, c.ID)
			}
			h.GetBytes(key(int(c.ID))) // nested: must not drop the batch pin
			inCallback++
		})
		for _, batch := range []int{1, 3, h.window, 5 * h.window} {
			if bytePinned(h) {
				t.Fatalf("%d regions: pinned before a batch of %d", nreg, batch)
			}
			for i := 0; i < batch; i++ {
				op := table.Get
				if i%4 == 1 {
					op = table.Put
				}
				h.SubmitBytes(op, uint64(i), key(i), []byte("v"))
				if got, want := bytePinned(h), h.PendingBytes() > 0; got != want {
					t.Fatalf("%d regions, batch %d, request %d: pinned %v with %d pending", nreg, batch, i, got, h.PendingBytes())
				}
			}
			h.FlushBytes()
			if bytePinned(h) {
				t.Fatalf("%d regions: still pinned after FlushBytes of a batch of %d", nreg, batch)
			}
		}
		if inCallback != 1+3+h.window+5*h.window {
			t.Fatalf("%d regions: %d completions", nreg, inCallback)
		}
	}
}

// TestByteRingPinHoldsReclamation: a segment that becomes fully dead while a
// byte batch is open — overwritten by another handle, or by the batch's own
// handle through synchronous PutBytes between GetBytes calls — cannot be
// unlinked by Advance before that batch's FlushBytes, and can be after it.
func TestByteRingPinHoldsReclamation(t *testing.T) {
	for _, byBatch := range []bool{false, true} {
		tbl := newBucketTable(1 << 12)
		ar := tbl.Bucket().Arena()
		filler, h := tbl.NewHandle(), tbl.NewHandle()
		var got []byte
		h.OnByteComplete(func(c ByteCompletion) { got = append(got[:0], c.Value...) })
		// Enough 4 KiB values to seal the filler's first (1 MiB) segment.
		big := make([]byte, 4<<10)
		var keys [][]byte
		for i := 0; i < 300; i++ {
			keys = append(keys, []byte(fmt.Sprintf("key-%03d", i)))
			filler.PutBytes(keys[i], big)
		}
		if total, _ := ar.Segments(); total < 2 {
			t.Fatalf("%d segments after the fill, want the first one sealed", total)
		}

		h.SubmitBytes(table.Get, 0, keys[0], nil)
		writer := filler
		if byBatch {
			writer = h
			h.GetBytes(keys[1])
		}
		for _, k := range keys { // every record of the sealed segment dies
			writer.PutBytes(k, []byte("small"))
		}
		if byBatch {
			h.GetBytes(keys[2])
		}
		ar.Advance()
		ar.Advance()
		if ar.Freed() != 0 || !bytePinned(h) {
			t.Fatalf("batch writes %v: %d segments unlinked, pinned %v, with the batch open", byBatch, ar.Freed(), bytePinned(h))
		}
		h.FlushBytes()
		if string(got) != "small" {
			t.Fatalf("batch writes %v: the batched Get read %q", byBatch, got)
		}
		ar.Advance()
		if ar.Freed() == 0 {
			t.Fatalf("batch writes %v: the dead segment outlived its batch", byBatch)
		}
	}
}
