package dramhit_test

import (
	"sync"
	"testing"

	"dramhit"
)

// TestPublicAPISurface exercises every exported entry point end-to-end the
// way an external adopter would.
func TestPublicAPISurface(t *testing.T) {
	// Core table.
	tbl := dramhit.New(dramhit.Config{Slots: 1 << 12})
	if tbl.Window() != dramhit.DefaultPrefetchWindow {
		t.Errorf("default window = %d", tbl.Window())
	}
	h := tbl.NewHandle()
	keys := []uint64{1, 2, 3, 0, ^uint64(0)} // reserved keys are usable
	vals := []uint64{10, 20, 30, 40, 50}
	h.PutBatch(keys, vals)
	got := make([]uint64, len(keys))
	found := make([]bool, len(keys))
	h.GetBatch(keys, got, found)
	for i := range keys {
		if !found[i] || got[i] != vals[i] {
			t.Fatalf("key %d: (%d, %v)", keys[i], got[i], found[i])
		}
	}
	if tbl.Len() != len(keys) {
		t.Fatalf("Len = %d", tbl.Len())
	}

	// Raw request interface with OOO IDs.
	reqs := []dramhit.Request{
		{Op: dramhit.Upsert, Key: 99, Value: 7},
		{Op: dramhit.Get, Key: 99, ID: 1},
		{Op: dramhit.Delete, Key: 1},
		{Op: dramhit.Get, Key: 1, ID: 2},
	}
	resps := make([]dramhit.Response, 8)
	n := 0
	for len(reqs) > 0 {
		nreq, nresp := h.Submit(reqs, resps[n:])
		reqs = reqs[nreq:]
		n += nresp
	}
	for {
		nresp, done := h.Flush(resps[n:])
		n += nresp
		if done {
			break
		}
	}
	byID := map[uint64]dramhit.Response{}
	for _, r := range resps[:n] {
		byID[r.ID] = r
	}
	if r := byID[1]; !r.Found || r.Value != 7 {
		t.Errorf("upsert+get: %+v", r)
	}
	if r := byID[2]; r.Found {
		t.Errorf("deleted key still found: %+v", r)
	}

	// Stats.
	if st := h.Stats(); st.Ops() == 0 || st.Lines == 0 {
		t.Errorf("stats empty: %+v", st)
	}
}

func TestPublicFolklore(t *testing.T) {
	f := dramhit.NewFolklore(256)
	f.Put(5, 50)
	if v, ok := f.Get(5); !ok || v != 50 {
		t.Fatalf("folklore get: (%d, %v)", v, ok)
	}
	if v, _ := f.Upsert(5, 1); v != 51 {
		t.Fatalf("folklore upsert: %d", v)
	}
	if !f.Delete(5) || f.Len() != 0 {
		t.Fatal("folklore delete")
	}
	var m dramhit.Map = f
	_ = m
}

func TestPublicPartitioned(t *testing.T) {
	p := dramhit.NewPartitioned(dramhit.PartitionedConfig{
		Slots: 1 << 12, Producers: 2, Consumers: 2,
	})
	p.Start()
	defer p.Close()
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wh := p.NewWriteHandle()
			defer wh.Close()
			for i := 0; i < 500; i++ {
				wh.Upsert(uint64(i%50), 1)
			}
			wh.Barrier()
		}(w)
	}
	wg.Wait()
	r := p.NewReadHandle()
	for i := 0; i < 50; i++ {
		if v, ok := r.Get(uint64(i)); !ok || v != 20 {
			t.Fatalf("count(%d) = (%d, %v), want 20", i, v, ok)
		}
	}
	if p.Dropped() != 0 {
		t.Errorf("dropped %d", p.Dropped())
	}
}

func TestReservedValueDocumented(t *testing.T) {
	if dramhit.ReservedValue != ^uint64(0)-1 {
		t.Errorf("ReservedValue = %x", dramhit.ReservedValue)
	}
}
