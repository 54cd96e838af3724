package obs

import (
	"sync"
	"testing"
	"unsafe"
)

func TestWorkerCountersAndGauges(t *testing.T) {
	r := New()
	w := r.Worker("w0")
	w.Inc(CGets)
	w.Add(CGets, 4)
	w.Store(CPuts, 100)
	if w.Counter(CGets) != 5 || w.Counter(CPuts) != 100 {
		t.Fatalf("counters: gets=%d puts=%d", w.Counter(CGets), w.Counter(CPuts))
	}
	w.SetGauge(GWindowOcc, 12)
	w.SetGauge(GWindowMax, 7)
	if w.Gauge(GWindowOcc) != 12 || w.Gauge(GWindowMax) != 7 {
		t.Fatalf("gauges: occ=%d max=%d", w.Gauge(GWindowOcc), w.Gauge(GWindowMax))
	}
}

func TestWorkerPadding(t *testing.T) {
	// The counter array must start at least a cache line past the struct
	// start, and the histograms at least a line past the gauges, so two
	// workers allocated adjacently never share hot lines.
	var w Worker
	base := uintptr(unsafe.Pointer(&w))
	if off := uintptr(unsafe.Pointer(&w.c[0])) - base; off < 64 {
		t.Fatalf("counters start at offset %d, want >= 64", off)
	}
	gaugesEnd := uintptr(unsafe.Pointer(&w.g[NumGauges-1])) + 8 - base
	if off := uintptr(unsafe.Pointer(&w.Op[0])) - base; off < gaugesEnd+64 {
		t.Fatalf("histograms at offset %d, want >= %d", off, gaugesEnd+64)
	}
}

func TestShardedCounter(t *testing.T) {
	c := NewShardedCounter(16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc(uint64(g*1000 + i))
			}
		}(g)
	}
	wg.Wait()
	if c.Total() != 8000 {
		t.Fatalf("Total = %d, want 8000", c.Total())
	}
	c.Add(3, 42)
	if c.Total() != 8042 {
		t.Fatalf("Total = %d, want 8042", c.Total())
	}
}

func TestShardedCounterZeroAlloc(t *testing.T) {
	c := NewShardedCounter(8)
	if n := testing.AllocsPerRun(1000, func() { c.Inc(7) }); n != 0 {
		t.Fatalf("Inc allocates %v per run, want 0", n)
	}
}

func TestRegistrySnapshot(t *testing.T) {
	r := NewWith(128, 4)
	w1 := r.Worker("a")
	w2 := r.Worker("b")
	w1.Add(CGets, 10)
	w2.Add(CGets, 5)
	w1.Op[OpGetHit].Record(100)
	w2.Op[OpGetHit].Record(200)
	w2.Op[OpPut].Record(300)
	r.AddSource("table", func() map[string]float64 {
		return map[string]float64{"fill": 0.5}
	})
	r.Trace().Record(r.Trace().NextID(), EvSubmit, 0, 1, 0)

	s := r.TakeSnapshot()
	if s.Totals["gets"] != 15 {
		t.Fatalf("totals gets = %d, want 15", s.Totals["gets"])
	}
	if len(s.Workers) != 2 {
		t.Fatalf("workers = %d, want 2", len(s.Workers))
	}
	if n := s.OpLatency["get_hit"].Count; n != 2 || s.OpLatency["put"].Count != 1 {
		t.Fatalf("merged op latency counts: get_hit %d, put %d; want 2 and 1", n, s.OpLatency["put"].Count)
	}
	if _, ok := s.OpLatency["upsert"]; ok {
		t.Fatal("op class with no samples has a latency entry")
	}
	if s.Sources["table"]["fill"] != 0.5 {
		t.Fatalf("source fill = %v", s.Sources["table"]["fill"])
	}
	if s.TraceEvents != 1 {
		t.Fatalf("trace events = %d, want 1", s.TraceEvents)
	}
	if s.UptimeSeconds < 0 {
		t.Fatalf("uptime = %v", s.UptimeSeconds)
	}
}

func TestRegistryTraceDisabled(t *testing.T) {
	r := NewWith(0, 1)
	if r.Trace() != nil {
		t.Fatal("traceCap 0 should disable the ring")
	}
	if r.TraceSampleN() != 1 {
		t.Fatalf("sampleN = %d, want 1", r.TraceSampleN())
	}
	// Snapshot with no trace must not panic.
	if s := r.TakeSnapshot(); s.TraceEvents != 0 {
		t.Fatalf("trace events = %d", s.TraceEvents)
	}
}

func TestWorkerHotOpsZeroAlloc(t *testing.T) {
	r := New()
	w := r.Worker("hot")
	if n := testing.AllocsPerRun(1000, func() {
		w.Inc(CGets)
		w.Store(CPuts, 7)
		w.SetGauge(GWindowOcc, 3)
		w.Op[OpGetHit].Record(55)
	}); n != 0 {
		t.Fatalf("worker hot ops allocate %v per run, want 0", n)
	}
}
