package folklore

import (
	"testing"

	"dramhit/internal/obs"
)

// TestObserveCounters pins the striped-counter contract: ops/probes/hits
// totals reflect the executed workload and the pull source reports live
// table aggregates.
func TestObserveCounters(t *testing.T) {
	reg := obs.New()
	tb := New(1 << 12)
	tb.Observe(reg)

	const n = 3000
	for i := uint64(1); i <= n; i++ {
		tb.Put(i, i*10)
	}
	hits := 0
	for i := uint64(1); i <= 2*n; i++ {
		if _, ok := tb.Get(i); ok {
			hits++
		}
	}
	for i := uint64(1); i <= 100; i++ {
		tb.Upsert(i, 1)
		tb.Delete(i + n) // absent
	}

	snap := reg.TakeSnapshot()
	src, ok := snap.Sources["folklore"]
	if !ok {
		t.Fatal("folklore pull source missing")
	}
	wantOps := float64(n + 2*n + 200)
	if src["ops"] != wantOps {
		t.Errorf("ops = %v, want %v", src["ops"], wantOps)
	}
	if src["hits"] != float64(hits) {
		t.Errorf("hits = %v, want %d", src["hits"], hits)
	}
	if src["probe_slots"] < wantOps {
		t.Errorf("probe_slots = %v, want >= ops %v", src["probe_slots"], wantOps)
	}
	if src["live"] != float64(tb.Len()) {
		t.Errorf("live = %v, want %d", src["live"], tb.Len())
	}
	if src["fill"] != tb.Fill() {
		t.Errorf("fill = %v, want %v", src["fill"], tb.Fill())
	}
}

// TestObserveZeroAlloc pins the synchronous hot path at zero allocations
// with observation off and on.
func TestObserveZeroAlloc(t *testing.T) {
	for _, mode := range []struct {
		name string
		reg  *obs.Registry
	}{{"off", nil}, {"on", obs.New()}} {
		tb := New(1 << 12)
		if mode.reg != nil {
			tb.Observe(mode.reg)
		}
		var k uint64
		if n := testing.AllocsPerRun(100, func() {
			k++
			tb.Upsert(k&1023+1, 1)
			tb.Get(k & 2047)
		}); n != 0 {
			t.Errorf("observe %s: %v allocs per op pair, want 0", mode.name, n)
		}
	}
}
