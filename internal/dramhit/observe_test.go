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
	for _, kernel := range []table.ProbeKernel{table.KernelSWAR, table.KernelScalar} {
		base := New(Config{Slots: 1 << 12, ProbeKernel: kernel})
		obsd := New(Config{Slots: 1 << 12, ProbeKernel: kernel, Observe: obs.NewWith(1024, 16)})
		r1, s1 := runObsWorkload(base, reqs)
		r2, s2 := runObsWorkload(obsd, reqs)
		if len(r1) != len(r2) {
			t.Fatalf("kernel %v: response counts differ: %d vs %d", kernel, len(r1), len(r2))
		}
		for i := range r1 {
			if r1[i] != r2[i] {
				t.Fatalf("kernel %v: response %d differs: %+v vs %+v", kernel, i, r1[i], r2[i])
			}
		}
		if s1 != s2 {
			t.Fatalf("kernel %v: stats differ:\n  off: %+v\n  on:  %+v", kernel, s1, s2)
		}
		if base.Len() != obsd.Len() {
			t.Fatalf("kernel %v: table contents differ: %d vs %d", kernel, base.Len(), obsd.Len())
		}
	}
}

// TestObserveCountersPublished pins the publish contract: after Flush, the
// registry shard mirrors the handle's stats exactly.
func TestObserveCountersPublished(t *testing.T) {
	reg := obs.NewWith(0, 1)
	tb := New(Config{Slots: 1 << 12, Observe: reg})
	reqs := obsWorkload(5000, 3)
	_, stats := runObsWorkload(tb, reqs)

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
	if w.Gauge(obs.GWindowMax) == 0 {
		t.Error("window occupancy max gauge never published")
	}
	// The pull source must see the table.
	snap := reg.TakeSnapshot()
	if snap.Sources["dramhit"]["live"] != float64(tb.Len()) {
		t.Errorf("pull source live = %v, want %d", snap.Sources["dramhit"]["live"], tb.Len())
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
// observation off AND on (the worker shard is allocated up front, so steady
// state allocates nothing).
func TestObserveZeroAlloc(t *testing.T) {
	armed := obs.NewWith(4096, 8)
	armed.EnableHotKeys(256)
	armed.EnableOpLatency()
	for _, mode := range []struct {
		name string
		reg  *obs.Registry
	}{
		{"off", nil},
		{"on", obs.NewWith(4096, 8)},
		// The introspection arms must not buy their data with allocations:
		// TopK.Offer and the per-op-class histograms are allocation-free.
		{"hotkeys+oplat", armed},
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
	// The armed registry must actually have collected: hot keys in the
	// sketch, latencies in every exercised op class.
	snap := armed.TakeSnapshot()
	if len(snap.HotKeys) == 0 {
		t.Error("armed registry collected no hot keys")
	}
	if len(snap.OpLatency) == 0 {
		t.Error("armed registry collected no op latencies")
	}
	for _, class := range []string{"get_hit", "put", "upsert"} {
		if snap.OpLatency[class].Count == 0 {
			t.Errorf("op class %s: no latencies recorded", class)
		}
	}
}
