package shardmap

import (
	"testing"

	"dramhit/internal/dramhit"
	"dramhit/internal/obs"
	"dramhit/internal/table"
	"dramhit/internal/workload"
)

// collect drains every response a Submit/Flush pair produces into got,
// failing on duplicate IDs (a completion must surface exactly once).
func collect(t *testing.T, got map[uint64]table.Response, resps []table.Response) {
	t.Helper()
	for _, r := range resps {
		if _, dup := got[r.ID]; dup {
			t.Fatalf("response ID %d surfaced twice", r.ID)
		}
		got[r.ID] = r
	}
}

// TestBatchedScatterGather pushes a mixed batch through the sharded pipeline
// and matches every Get completion back by caller ID, across shard
// boundaries and out-of-order arrival.
func TestBatchedScatterGather(t *testing.T) {
	b := NewBatched(BatchedConfig{Shards: 4, Table: dramhit.Config{Slots: 8192}})
	if got := b.Shards(); got != 4 {
		t.Fatalf("Shards = %d, want 4", got)
	}
	h := b.NewHandle()
	keys := workload.UniqueKeys(21, 2000)

	var resps [256]table.Response
	puts := make([]table.Request, 0, 64)
	flushAll := func() {
		for {
			if _, done := h.Flush(resps[:]); done {
				break
			}
		}
	}
	for i, k := range keys {
		puts = append(puts, table.Request{Op: table.Put, Key: k, Value: k ^ 3, ID: uint64(i)})
		if len(puts) == 64 || i == len(keys)-1 {
			nreq, _ := h.Submit(puts, resps[:])
			if nreq != len(puts) {
				t.Fatalf("Submit consumed %d of %d puts", nreq, len(puts))
			}
			puts = puts[:0]
		}
	}
	flushAll()
	if got := b.Len(); got != len(keys) {
		t.Fatalf("Len = %d after %d puts", got, len(keys))
	}

	got := make(map[uint64]table.Response, len(keys))
	gets := make([]table.Request, 0, 64)
	for i, k := range keys {
		gets = append(gets, table.Request{Op: table.Get, Key: k, ID: uint64(i)})
		if len(gets) == 64 || i == len(keys)-1 {
			_, nresp := h.Submit(gets, resps[:])
			collect(t, got, resps[:nresp])
			gets = gets[:0]
		}
	}
	for {
		nresp, done := h.Flush(resps[:])
		collect(t, got, resps[:nresp])
		if done {
			break
		}
	}
	if h.Pending() != 0 {
		t.Fatalf("Pending = %d after done Flush", h.Pending())
	}
	if len(got) != len(keys) {
		t.Fatalf("gathered %d completions for %d gets", len(got), len(keys))
	}
	for i, k := range keys {
		r := got[uint64(i)]
		if !r.Found || r.Value != k^3 {
			t.Fatalf("get %d (key %#x) = (%d,%v), want (%d,true)", i, k, r.Value, r.Found, k^3)
		}
	}
	if s := h.Stats(); s.Gets != uint64(len(keys)) || s.Puts != uint64(len(keys)) {
		t.Fatalf("summed stats Gets=%d Puts=%d, want %d each", s.Gets, s.Puts, len(keys))
	}
}

// TestBatchedOverflow starves Submit and Flush of response space so
// completions detour through the handle's overflow queue, and checks each
// surfaces exactly once.
func TestBatchedOverflow(t *testing.T) {
	b := NewBatched(BatchedConfig{Shards: 4, Table: dramhit.Config{Slots: 4096}})
	h := b.NewHandle()
	keys := workload.UniqueKeys(22, 500)
	reqs := make([]table.Request, 0, len(keys))
	for i, k := range keys {
		reqs = append(reqs, table.Request{Op: table.Put, Key: k, Value: k + 1, ID: uint64(i)})
	}
	var big [1024]table.Response
	h.Submit(reqs, big[:])
	for n, done := h.Flush(big[:]); !done; n, done = h.Flush(big[:]) {
		_ = n
	}

	reqs = reqs[:0]
	for i, k := range keys {
		reqs = append(reqs, table.Request{Op: table.Get, Key: k, ID: uint64(i)})
	}
	got := make(map[uint64]table.Response, len(keys))
	var tiny [7]table.Response // far smaller than the completion volume
	_, nresp := h.Submit(reqs, tiny[:])
	collect(t, got, tiny[:nresp])
	rounds := 0
	for {
		nresp, done := h.Flush(tiny[:])
		collect(t, got, tiny[:nresp])
		if done {
			break
		}
		if rounds++; rounds > 10*len(keys) {
			t.Fatal("Flush never drained the overflow queue")
		}
	}
	if len(got) != len(keys) {
		t.Fatalf("gathered %d completions for %d gets", len(got), len(keys))
	}
	for i, k := range keys {
		if r := got[uint64(i)]; !r.Found || r.Value != k+1 {
			t.Fatalf("get %d = (%d,%v), want (%d,true)", i, r.Value, r.Found, k+1)
		}
	}
}

// TestBatchedObserveSource checks the single aggregated source (per-shard
// labelled) replaces the per-table registrations that would collide.
func TestBatchedObserveSource(t *testing.T) {
	reg := obs.NewWith(0, 1)
	b := NewBatched(BatchedConfig{
		Shards: 2,
		Table:  dramhit.Config{Slots: 1024, Observe: reg},
	})
	s := b.NewSync()
	for _, k := range workload.UniqueKeys(31, 100) {
		s.Put(k, k)
	}
	var batched map[string]float64
	for _, src := range reg.Sources() {
		switch src.Name {
		case "shardmap_batched":
			batched = src.Collect()
		case "dramhit":
			t.Fatalf("per-shard table leaked its %q source onto the shared registry", src.Name)
		}
	}
	if batched == nil {
		t.Fatal("shardmap_batched source not registered")
	}
	if int(batched["live"]) != 100 {
		t.Fatalf("live = %v, want 100", batched["live"])
	}
	for i := 0; i < 2; i++ {
		if _, ok := batched["shard"+itoa(i)+"_live"]; !ok {
			t.Fatalf("missing per-shard key shard%d_live", i)
		}
	}
}

// TestBatchedShardsDisjoint checks the two faces agree on ownership: the
// batched router and the synchronous Map route every key to the same shard
// index, and the per-shard tables partition the key set.
func TestBatchedShardsDisjoint(t *testing.T) {
	b := NewBatched(BatchedConfig{Shards: 8, Table: dramhit.Config{Slots: 8192}})
	s := b.NewSync()
	keys := workload.UniqueKeys(41, 1000)
	for _, k := range keys {
		s.Put(k, k)
	}
	total := 0
	for i := 0; i < b.Shards(); i++ {
		total += b.Shard(i).Len()
	}
	if total != len(keys) {
		t.Fatalf("per-shard Lens sum to %d, want %d (a key landed in two shards)", total, len(keys))
	}
	for _, k := range keys {
		own := b.shardOf(k)
		for i := 0; i < b.Shards(); i++ {
			if i == own {
				continue
			}
			if _, ok := b.Shard(i).NewSync().Get(k); ok {
				t.Fatalf("key %#x visible in shard %d, owned by %d", k, i, own)
			}
		}
	}
}
