package dramhitp

import (
	"math/rand"
	"strings"
	"testing"

	"dramhit/internal/obs"
	"dramhit/internal/table"
)

func newObsTable(reg *obs.Registry) *Table {
	t := New(Config{
		Slots:                 1 << 13,
		Producers:             2,
		Consumers:             2,
		PartitionsPerConsumer: 2,
		Observe:               reg,
	})
	t.Start()
	return t
}

// obsFill delegates a write workload (with duplicate keys so coalescing
// fires) and barriers it visible.
func obsFill(t *Table, n int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	w := t.NewWriteHandle()
	for i := 0; i < n; i++ {
		w.Upsert(uint64(rng.Intn(n/4)+1), 1)
	}
	w.Barrier()
	w.Close()
}

// obsRead pipelines Gets (heavy duplication so piggybacking fires) and
// returns the responses plus the handle for counter inspection.
func obsRead(t *Table, n int, seed int64) ([]table.Response, *ReadHandle) {
	rng := rand.New(rand.NewSource(seed))
	reqs := make([]table.Request, n)
	for i := range reqs {
		reqs[i] = table.Request{Op: table.Get, Key: uint64(rng.Intn(n/2) + 1), ID: uint64(i)}
	}
	r := t.NewReadHandle()
	buf := make([]table.Response, 64)
	var resps []table.Response
	rem := reqs
	for len(rem) > 0 {
		nreq, nresp := r.Submit(rem, buf)
		resps = append(resps, buf[:nresp]...)
		rem = rem[nreq:]
	}
	for {
		nresp, done := r.Flush(buf)
		resps = append(resps, buf[:nresp]...)
		if done {
			break
		}
	}
	return resps, r
}

// TestPObserveBitIdentical: attaching a registry must not change a single
// read response or any handle counter of the partitioned table.
func TestPObserveBitIdentical(t *testing.T) {
	base := newObsTable(nil)
	obsd := newObsTable(obs.NewWith(1024, 8))
	defer base.Close()
	defer obsd.Close()
	obsFill(base, 6000, 21)
	obsFill(obsd, 6000, 21)
	if base.Len() != obsd.Len() {
		t.Fatalf("table contents differ after writes: %d vs %d", base.Len(), obsd.Len())
	}
	r1, h1 := obsRead(base, 8000, 33)
	r2, h2 := obsRead(obsd, 8000, 33)
	if len(r1) != len(r2) {
		t.Fatalf("response counts differ: %d vs %d", len(r1), len(r2))
	}
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatalf("response %d differs: %+v vs %+v", i, r1[i], r2[i])
		}
	}
	if h1.Stats() != h2.Stats() {
		t.Fatalf("read stats differ:\n  off: %+v\n  on:  %+v", h1.Stats(), h2.Stats())
	}
}

// TestPObservePublished pins the publish contract on the three handle kinds
// (writers, owners, readers), each under its own shard prefix, and the pull
// source.
func TestPObservePublished(t *testing.T) {
	reg := obs.NewWith(1<<15, 1)
	tb := newObsTable(reg)
	defer tb.Close()
	obsFill(tb, 6000, 5)
	_, rh := obsRead(tb, 6000, 7)

	// Each role publishes under its own prefix, and only its own work:
	// writers their sends, owners the updates they apply, readers the Gets.
	var wsends, rgets, rhits, oupdates uint64
	owners := 0
	for _, w := range reg.Workers() {
		name := w.Name()
		role := strings.TrimRight(name, "0123456789")
		sends, updates, gets := w.Counter(obs.CQueueSends), w.Counter(obs.CPuts)+w.Counter(obs.CUpserts), w.Counter(obs.CGets)
		switch role {
		case "dramhitp-w":
			wsends += sends
		case "dramhitp-o":
			owners++
			oupdates += updates
		case "dramhitp-r":
			rgets += gets
			rhits += w.Counter(obs.CHits)
		default:
			t.Fatalf("unexpected worker %q", name)
		}
		if (role != "dramhitp-w" && sends != 0) || (role != "dramhitp-o" && updates != 0) || (role != "dramhitp-r" && gets != 0) {
			t.Errorf("worker %q published %d sends, %d puts and upserts, %d gets: work of another role", name, sends, updates, gets)
		}
	}
	if wsends == 0 {
		t.Error("no delegation sends published")
	}
	if owners != tb.cfg.Consumers || oupdates != wsends {
		t.Errorf("%d owner shards published %d updates, want %d shards applying the %d sends", owners, oupdates, tb.cfg.Consumers, wsends)
	}
	if rgets != rh.Stats().Gets || rhits != rh.Stats().Hits {
		t.Errorf("published read counters %d/%d, want %d/%d",
			rgets, rhits, rh.Stats().Gets, rh.Stats().Hits)
	}

	snap := reg.TakeSnapshot()
	src, ok := snap.Sources["dramhitp"]
	if !ok {
		t.Fatal("dramhitp pull source missing")
	}
	if src["live"] != float64(tb.Len()) {
		t.Errorf("pull source live = %v, want %d", src["live"], tb.Len())
	}
	if src["partitions"] != float64(tb.Partitions()) {
		t.Errorf("pull source partitions = %v, want %d", src["partitions"], tb.Partitions())
	}

	// With 1-in-1 sampling the read pipeline must leave complete lifecycles.
	evs := reg.Trace().Snapshot()
	var submits, completes int
	for _, e := range evs {
		switch e.Kind {
		case obs.EvSubmit:
			submits++
		case obs.EvComplete:
			completes++
		}
	}
	if submits == 0 || completes == 0 {
		t.Fatalf("trace missing lifecycle events: %d submits, %d completes", submits, completes)
	}
}

// TestPObserveZeroAlloc pins the pipelined read path at zero allocations per
// batch with observation off AND on.
func TestPObserveZeroAlloc(t *testing.T) {
	// Observed, the hot-key sketch feed and per-op-class latency must stay
	// allocation-free on the pipelined read path.
	observed := obs.NewWith(4096, 8)
	for _, mode := range []struct {
		name string
		reg  *obs.Registry
	}{
		{"off", nil},
		{"on", observed},
	} {
		tb := newObsTable(mode.reg)
		obsFill(tb, 4000, 3)
		r := tb.NewReadHandle()
		reqs := make([]table.Request, 2048)
		rng := rand.New(rand.NewSource(9))
		for i := range reqs {
			reqs[i] = table.Request{Op: table.Get, Key: uint64(rng.Intn(2000) + 1), ID: uint64(i)}
		}
		buf := make([]table.Response, len(reqs))
		run := func() {
			rem := reqs
			for len(rem) > 0 {
				nreq, _ := r.Submit(rem, buf)
				rem = rem[nreq:]
			}
			for {
				if _, done := r.Flush(buf); done {
					break
				}
			}
		}
		run() // warm the merged-node arena
		if n := testing.AllocsPerRun(5, run); n != 0 {
			t.Errorf("observe %s: %v allocs per batch, want 0", mode.name, n)
		}
		tb.Close()
	}
	snap := observed.TakeSnapshot()
	if len(snap.HotKeys) == 0 {
		t.Error("observed registry collected no hot keys")
	}
	if snap.OpLatency["get_hit"].Count == 0 {
		t.Error("observed registry recorded no get_hit latencies")
	}
}

// TestBytesObserve: the byte table registers the "dramhitp" pull source and
// a bucket heatmap, and its handles publish under "dramhitp-h".
func TestBytesObserve(t *testing.T) {
	reg := obs.NewWith(0, 1)
	tb := NewBytes(BytesConfig{Slots: 1 << 10, Partitions: 3, Observe: reg})
	h := tb.NewHandle()
	for k := uint64(0); k < 500; k++ {
		h.PutBytes(le(k), le(k))
	}
	src := reg.TakeSnapshot().Sources["dramhitp"]
	if src["live"] != 500 || src["slots"] != float64(tb.Cap()) || src["partitions"] != 3 || src["dropped"] != 0 {
		t.Fatalf("dramhitp pull source %v, want live 500, slots %d, 3 partitions, none dropped", src, tb.Cap())
	}
	var kinds []string
	for _, hm := range reg.Heatmaps() {
		if hm.Source == "dramhitp" {
			kinds = append(kinds, hm.Kind)
		}
	}
	if len(kinds) != 1 || kinds[0] != "bucket" {
		t.Fatalf("dramhitp heatmaps of kinds %v, want one bucket heatmap", kinds)
	}
	if ws := reg.Workers(); len(ws) != 1 || !strings.HasPrefix(ws[0].Name(), "dramhitp-h") {
		t.Fatalf("%d workers registered for one handle, want one dramhitp-h worker", len(ws))
	}
}
