package obs

import (
	"sync"
	"testing"
)

func TestTraceRingRecordSnapshot(t *testing.T) {
	r := NewTraceRing(64)
	id := r.NextID()
	if id == 0 {
		t.Fatal("NextID returned zero")
	}
	r.Record(id, EvSubmit, 2, 0xdead, 0)
	r.Record(id, EvReprobe, 2, 0xdead, 3)
	r.Record(id, EvComplete, 2, 0xdead, 1)

	evs := r.Snapshot()
	if len(evs) != 3 {
		t.Fatalf("got %d events, want 3", len(evs))
	}
	kinds := []EventKind{EvSubmit, EvReprobe, EvComplete}
	args := []uint32{0, 3, 1}
	for i, e := range evs {
		if e.ID != id || e.Key != 0xdead || e.Op != 2 {
			t.Fatalf("event %d: %+v", i, e)
		}
		if e.Kind != kinds[i] || e.Arg != args[i] {
			t.Fatalf("event %d: kind %v arg %d, want %v %d", i, e.Kind, e.Arg, kinds[i], args[i])
		}
		if e.TS == 0 {
			t.Fatalf("event %d: zero timestamp", i)
		}
	}
}

func TestTraceRingWrap(t *testing.T) {
	r := NewTraceRing(64)
	for i := 0; i < 200; i++ {
		r.Record(uint64(i+1), EvSubmit, 0, uint64(i), 0)
	}
	if r.Recorded() != 200 {
		t.Fatalf("Recorded = %d, want 200", r.Recorded())
	}
	evs := r.Snapshot()
	if len(evs) != r.Cap() {
		t.Fatalf("retained %d, want cap %d", len(evs), r.Cap())
	}
	// Oldest retained event is number 200-cap+1; order is oldest-first.
	first := uint64(200 - r.Cap() + 1)
	for i, e := range evs {
		if e.ID != first+uint64(i) {
			t.Fatalf("event %d: id %d, want %d", i, e.ID, first+uint64(i))
		}
	}
}

func TestTraceRingMetaPacking(t *testing.T) {
	r := NewTraceRing(64)
	r.Record(9, EvReprobe, 0xAB, 7, 0xC0FFEE)
	e := r.Snapshot()[0]
	if e.Kind != EvReprobe || e.Op != 0xAB || e.Arg != 0xC0FFEE {
		t.Fatalf("meta round-trip: %+v", e)
	}
}

func TestTraceRingConcurrent(t *testing.T) {
	r := NewTraceRing(256)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Record(r.NextID(), EvProbe, uint8(g), uint64(i), 0)
			}
		}(g)
	}
	// Concurrent scrapes must not race or panic.
	for i := 0; i < 20; i++ {
		_ = r.Snapshot()
	}
	wg.Wait()
	if r.Recorded() != 8000 {
		t.Fatalf("Recorded = %d, want 8000", r.Recorded())
	}
}

func TestTraceRingRecordZeroAlloc(t *testing.T) {
	r := NewTraceRing(64)
	if n := testing.AllocsPerRun(1000, func() {
		r.Record(1, EvProbe, 0, 42, 0)
	}); n != 0 {
		t.Fatalf("Record allocates %v per run, want 0", n)
	}
}

func TestEventKindString(t *testing.T) {
	for k, want := range map[EventKind]string{
		EvSubmit: "submit", EvProbe: "probe", EvReprobe: "reprobe",
		EvComplete: "complete", EventKind(99): "invalid",
	} {
		if k.String() != want {
			t.Fatalf("EventKind(%d).String() = %q, want %q", k, k.String(), want)
		}
	}
}
