package dramhit

import (
	"math/rand"
	"testing"

	"dramhit/internal/obs"
	"dramhit/internal/table"
)

// obsWorkload is a mixed-op request stream with heavy key duplication, so
// same-key requests meet in the ring and probes cross lines.
func obsWorkload(n int, seed int64) []table.Request {
	rng := rand.New(rand.NewSource(seed))
	reqs := make([]table.Request, n)
	for i := range reqs {
		key := uint64(rng.Intn(n/4) + 1)
		var op table.Op
		switch rng.Intn(10) {
		case 0:
			op = table.Put
		case 1:
			op = table.Delete
		case 2, 3, 4:
			op = table.Upsert
		default:
			op = table.Get
		}
		reqs[i] = table.Request{Op: op, Key: key, Value: uint64(i + 1), ID: uint64(i)}
	}
	return reqs
}

func runObsWorkload(t *Table, reqs []table.Request) (resps []table.Response, stats Stats) {
	h := t.NewHandle()
	buf := make([]table.Response, 64)
	rem := reqs
	for len(rem) > 0 {
		nreq, nresp := h.Submit(rem, buf)
		resps = append(resps, buf[:nresp]...)
		rem = rem[nreq:]
	}
	for {
		nresp, done := h.Flush(buf)
		resps = append(resps, buf[:nresp]...)
		if done {
			break
		}
	}
	return resps, h.Stats()
}

// TestObserveBitIdentical is the A/B guarantee: attaching a registry must
// not change a single response (value, found flag, completion order) or any
// handle counter.
func TestObserveBitIdentical(t *testing.T) {
	reqs := obsWorkload(20000, 11)
	base := New(Config{Slots: 1 << 12})
	obsd := New(Config{Slots: 1 << 12, Observe: obs.NewWith(1024, 16)})
	r1, s1 := runObsWorkload(base, reqs)
	r2, s2 := runObsWorkload(obsd, reqs)
	if len(r1) != len(r2) {
		t.Fatalf("response counts differ: %d vs %d", len(r1), len(r2))
	}
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatalf("response %d differs: %+v vs %+v", i, r1[i], r2[i])
		}
	}
	if s1 != s2 {
		t.Fatalf("stats differ:\n  off: %+v\n  on:  %+v", s1, s2)
	}
	if base.Len() != obsd.Len() {
		t.Fatalf("table contents differ: %d vs %d", base.Len(), obsd.Len())
	}
}

// runObsBytes is runObsWorkload's byte-ring port on a bucket table: every
// request goes through SubmitBytes (an Upsert as a Put; the ring takes no
// Upsert), in batches of 64 that each end in FlushBytes.
func runObsBytes(t *Table, reqs []table.Request) Stats {
	h := t.NewHandle()
	h.OnByteComplete(func(ByteCompletion) {})
	for i, r := range reqs {
		op := r.Op
		if op == table.Upsert {
			op = table.Put
		}
		h.SubmitBytes(op, r.ID, le(r.Key), le(r.Value))
		if i%64 == 63 {
			h.FlushBytes()
		}
	}
	h.FlushBytes()
	return h.Stats()
}

// TestObserveCountersPublished pins the publish contract: after Flush (or
// FlushBytes), the registry shard mirrors the handle's stats exactly, and the
// window gauges saw a full window.
func TestObserveCountersPublished(t *testing.T) {
	for _, layout := range []table.Layout{table.LayoutFlat, table.LayoutBucket} {
		t.Run(layout.String(), func(t *testing.T) {
			reg := obs.NewWith(0, 1)
			tb := New(Config{Slots: 1 << 12, Layout: layout, Observe: reg})
			reqs := obsWorkload(5000, 3)
			var stats Stats
			if layout == table.LayoutBucket {
				stats = runObsBytes(tb, reqs)
			} else {
				_, stats = runObsWorkload(tb, reqs)
			}

			workers := reg.Workers()
			if len(workers) != 1 {
				t.Fatalf("workers = %d, want 1", len(workers))
			}
			w := workers[0]
			checks := []struct {
				name string
				idx  int
				want uint64
			}{
				{"gets", obs.CGets, stats.Gets},
				{"puts", obs.CPuts, stats.Puts},
				{"upserts", obs.CUpserts, stats.Upserts},
				{"deletes", obs.CDeletes, stats.Deletes},
				{"hits", obs.CHits, stats.Hits},
				{"reprobes", obs.CReprobes, stats.Reprobes},
				{"lines", obs.CLines, stats.Lines},
				{"keylines", obs.CKeyLines, stats.KeyLines},
				{"cas_attempts", obs.CCASAttempts, stats.CASAttempts},
			}
			for _, c := range checks {
				if got := w.Counter(c.idx); got != c.want {
					t.Errorf("published %s = %d, want %d", c.name, got, c.want)
				}
			}
			if got := w.Gauge(obs.GWindowMax); got != DefaultPrefetchWindow {
				t.Errorf("window_max = %d, want the window %d", got, DefaultPrefetchWindow)
			}
			if got := w.Gauge(obs.GWindowOcc); got != 0 {
				t.Errorf("window_occ = %d after the flush, want 0", got)
			}
			// The pull source must see the table.
			snap := reg.TakeSnapshot()
			if snap.Sources["dramhit"]["live"] != float64(tb.Len()) {
				t.Errorf("pull source live = %v, want %d", snap.Sources["dramhit"]["live"], tb.Len())
			}
		})
	}
}

// TestObserveSyncBytesPublished: the synchronous byte ops reach the registry
// as the ring's requests do. Sampling 1 in 1, each stamps its op-class
// latency; a FlushBytes with nothing in flight makes the shard exact, and a
// handle that never flushes still publishes once per obsPublishEvery ops.
func TestObserveSyncBytesPublished(t *testing.T) {
	reg := obs.NewWith(0, 1)
	tb := New(Config{Slots: 1 << 12, Layout: table.LayoutBucket, Observe: reg})
	h := tb.NewHandle()
	for k := uint64(0); k < 10; k++ {
		h.PutBytes(le(k), le(k))
	}
	h.GetBytes(le(3))
	h.GetBytes(le(99))
	h.UpsertBytes(le(4), func(old []byte, present bool) ([]byte, bool) { return le(40), true })
	h.DeleteBytes(le(5))
	h.FlushBytes()
	w, st := reg.Workers()[0], h.Stats()
	for _, c := range []struct {
		name      string
		idx       int
		got, want uint64
	}{
		{"puts", obs.CPuts, st.Puts, 10},
		{"gets", obs.CGets, st.Gets, 2},
		{"upserts", obs.CUpserts, st.Upserts, 1},
		{"deletes", obs.CDeletes, st.Deletes, 1},
		{"hits", obs.CHits, st.Hits, 2},
	} {
		if c.got != c.want || w.Counter(c.idx) != c.want {
			t.Errorf("%s: Stats %d, published %d, want %d", c.name, c.got, w.Counter(c.idx), c.want)
		}
	}
	for cls, want := range map[int]uint64{obs.OpPut: 10, obs.OpGetHit: 1, obs.OpGetMiss: 1,
		obs.OpUpsert: 1, obs.OpDeleteHit: 1, obs.OpDeleteMiss: 0} {
		if got := w.Op[cls].Count(); got != want {
			t.Errorf("op class %s: %d latency samples, want %d", obs.OpClassNames[cls], got, want)
		}
	}

	h2 := tb.NewHandle()
	for k := uint64(0); k < obsPublishEvery; k++ {
		h2.GetBytes(le(k))
	}
	if got := reg.Workers()[1].Counter(obs.CGets); got != obsPublishEvery {
		t.Errorf("%d synchronous gets and no flush published %d, want %d", obsPublishEvery, got, obsPublishEvery)
	}
}

// TestSampledOpLatency: every request site samples 1 request in the
// registry's TraceSampleN. Over the ring, direct mode, the byte ring and the
// synchronous byte ops, n requests on one handle of a NewWith(0, 8) registry
// record exactly n/8 latency samples; an unobserved handle runs no sampler
// and stamps nothing.
func TestSampledOpLatency(t *testing.T) {
	const n = 8*125 + 5
	flat := func(h *Handle) {
		reqs := obsWorkload(n, 13)
		buf := make([]table.Response, n)
		for rem := reqs; len(rem) > 0; {
			nreq, _ := h.Submit(rem, buf)
			rem = rem[nreq:]
		}
		for _, done := h.Flush(buf); !done; _, done = h.Flush(buf) {
		}
	}
	bucket := Config{Slots: 1 << 12, Layout: table.LayoutBucket}
	for _, site := range []struct {
		name string
		cfg  Config
		run  func(h *Handle)
	}{
		{"ring", Config{Slots: 1 << 12}, flat},
		{"direct", Config{Slots: 1 << 12, Governor: table.GovernorDirect}, flat},
		{"byte ring", bucket, func(h *Handle) {
			h.OnByteComplete(func(ByteCompletion) {})
			for i := uint64(0); i < n; i++ {
				h.SubmitBytes([]table.Op{table.Put, table.Get, table.Delete}[i%3], i, le(i%50), le(i))
			}
			h.FlushBytes()
		}},
		{"sync bytes", bucket, func(h *Handle) {
			for i := uint64(0); i < n; i++ {
				switch key := le(i % 50); i % 4 {
				case 0:
					h.PutBytes(key, le(i))
				case 1:
					h.GetBytes(key)
				case 2:
					h.UpsertBytes(key, func([]byte, bool) ([]byte, bool) { return le(i), true })
				default:
					h.DeleteBytes(key)
				}
			}
		}},
	} {
		t.Run(site.name, func(t *testing.T) {
			for _, reg := range []*obs.Registry{nil, obs.NewWith(0, 8)} {
				cfg := site.cfg
				cfg.Observe = reg
				h := New(cfg).NewHandle()
				site.run(h)
				if reg == nil {
					stamped := h.sampleCnt != 0
					for _, p := range h.q {
						stamped = stamped || p.startNS != 0
					}
					for _, p := range h.byteQ {
						stamped = stamped || p.startNS != 0
					}
					if stamped {
						t.Error("an unobserved handle sampled or stamped a request")
					}
					continue
				}
				var got uint64
				for cls := range obs.NumOpClasses {
					got += reg.Workers()[0].Op[cls].Count()
				}
				if got != n/8 {
					t.Errorf("%d requests recorded %d latency samples, want %d", n, got, n/8)
				}
			}
		})
	}
}

// TestObserveTraceLifecycle pins the sampled lifecycle: with 1-in-1 sampling
// every completed request leaves a Submit and a Complete, in that order,
// under the same trace id.
func TestObserveTraceLifecycle(t *testing.T) {
	reg := obs.NewWith(1<<16, 1)
	tb := New(Config{Slots: 1 << 12, Observe: reg})
	runObsWorkload(tb, obsWorkload(2000, 5))

	evs := reg.Trace().Snapshot()
	if len(evs) == 0 {
		t.Fatal("no trace events recorded")
	}
	byID := map[uint64][]obs.Event{}
	for _, e := range evs {
		byID[e.ID] = append(byID[e.ID], e)
	}
	complete := 0
	for id, seq := range byID {
		if seq[0].Kind != obs.EvSubmit {
			t.Fatalf("trace %d starts with %v, want submit (%+v)", id, seq[0].Kind, seq)
		}
		last := seq[len(seq)-1]
		if last.Kind == obs.EvComplete {
			complete++
		}
		for i := 1; i < len(seq); i++ {
			if seq[i].TS < seq[i-1].TS {
				t.Fatalf("trace %d: timestamps regress: %+v", id, seq)
			}
		}
	}
	if complete == 0 {
		t.Fatal("no traced request completed")
	}
}

// TestObserveParks drains a Get stream through a one-slot response buffer, so
// the queue head parks — a Get with nowhere to put its response —
// and Submit and Flush return early again and again. What those early returns
// publish must still add up: after the final Flush the shard mirrors the
// handle's Stats, and the window gauges saw a full window and an empty one.
func TestObserveParks(t *testing.T) {
	reg := obs.NewWith(0, 1)
	h := New(Config{Slots: 1 << 10, Observe: reg}).NewHandle()
	reqs := make([]table.Request, 40)
	for i := range reqs {
		reqs[i] = table.Request{Op: table.Get, Key: uint64(i%5) + 1, ID: uint64(i)}
	}
	buf := make([]table.Response, 1)
	parks := 0
	for rem := reqs; len(rem) > 0; {
		nreq, _ := h.Submit(rem, buf)
		if rem = rem[nreq:]; len(rem) > 0 {
			parks++
		}
	}
	for {
		if _, done := h.Flush(buf); done {
			break
		}
		parks++
	}
	w := reg.Workers()[0]
	if parks == 0 {
		t.Error("the queue head never parked despite a 1-slot response buffer")
	}
	if got := w.Counter(obs.CGets); got != uint64(len(reqs)) || got != h.Stats().Gets {
		t.Errorf("published gets = %d, want %d (Stats.Gets %d)", got, len(reqs), h.Stats().Gets)
	}
	if w.Gauge(obs.GWindowMax) != DefaultPrefetchWindow || w.Gauge(obs.GWindowOcc) != 0 {
		t.Errorf("window gauges: max %d, now %d; want %d and 0", w.Gauge(obs.GWindowMax), w.Gauge(obs.GWindowOcc), DefaultPrefetchWindow)
	}
}

// TestObserveZeroAlloc pins the hot path at zero allocations per batch with
// observation off AND on (the worker shard and its sketch are allocated up
// front, and TopK.Offer and the per-op-class histograms are allocation-free,
// so steady state allocates nothing).
func TestObserveZeroAlloc(t *testing.T) {
	observed := obs.NewWith(4096, 8)
	for _, mode := range []struct {
		name string
		reg  *obs.Registry
	}{
		{"off", nil},
		{"on", observed},
	} {
		tb := New(Config{Slots: 1 << 14, Observe: mode.reg})
		h := tb.NewHandle()
		reqs := obsWorkload(4096, 9)
		buf := make([]table.Response, len(reqs))
		run := func() {
			rem := reqs
			for len(rem) > 0 {
				nreq, _ := h.Submit(rem, buf)
				rem = rem[nreq:]
			}
			for {
				if _, done := h.Flush(buf); done {
					break
				}
			}
		}
		run()
		if n := testing.AllocsPerRun(5, run); n != 0 {
			t.Errorf("observe %s: %v allocs per batch, want 0", mode.name, n)
		}
	}
	// The observed registry must actually have collected: hot keys in the
	// sketch, latencies in every exercised op class.
	snap := observed.TakeSnapshot()
	if len(snap.HotKeys) == 0 {
		t.Error("observed registry collected no hot keys")
	}
	if len(snap.OpLatency) == 0 {
		t.Error("observed registry collected no op latencies")
	}
	for _, class := range []string{"get_hit", "put", "upsert"} {
		if snap.OpLatency[class].Count == 0 {
			t.Errorf("op class %s: no latencies recorded", class)
		}
	}
}
