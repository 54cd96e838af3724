package obs

import (
	"math/rand"
	"testing"

	"dramhit/internal/ycsb"
)

// zipfKeys draws n keys from the YCSB zipfian request distribution over
// records keys at the given theta.
func zipfKeys(n int, records uint64, theta float64, seed int64) []uint64 {
	g := ycsb.NewGeneratorTheta(ycsb.C, records, seed, theta)
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = g.Next().Key
	}
	return keys
}

// exactTopK returns the true top-k keys of the stream.
func exactTopK(keys []uint64, k int) map[uint64]bool {
	counts := map[uint64]uint64{}
	for _, key := range keys {
		counts[key]++
	}
	top := map[uint64]bool{}
	for len(top) < k && len(top) < len(counts) {
		var best uint64
		var bestN uint64
		for key, n := range counts {
			if !top[key] && n > bestN {
				best, bestN = key, n
			}
		}
		top[best] = true
	}
	return top
}

func recallAt(t *testing.T, items []TopKItem, truth map[uint64]bool, k int) float64 {
	t.Helper()
	if len(items) > k {
		items = items[:k]
	}
	hit := 0
	for _, it := range items {
		if truth[it.Key] {
			hit++
		}
	}
	return float64(hit) / float64(len(truth))
}

// TestTopKExact: with fewer distinct keys than the budget the sketch is an
// exact counter (no evictions, zero error bounds).
func TestTopKExact(t *testing.T) {
	tk := NewTopK(64)
	want := map[uint64]uint64{}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		k := uint64(rng.Intn(50))
		tk.Offer(k)
		want[k]++
	}
	if tk.Count() != 10000 {
		t.Fatalf("Count = %d", tk.Count())
	}
	got := tk.Snapshot()
	if len(got) != len(want) {
		t.Fatalf("monitored %d keys, want %d", len(got), len(want))
	}
	for _, it := range got {
		if it.Err != 0 {
			t.Fatalf("key %d has err %d without evictions", it.Key, it.Err)
		}
		if want[it.Key] != it.Count {
			t.Fatalf("key %d count = %d, want %d", it.Key, it.Count, want[it.Key])
		}
	}
}

// TestTopKRecallZipf: the acceptance property — recall ≥ 0.9 for K=16
// against exact counts on zipfian streams at θ ∈ {0.9, 0.99}.
func TestTopKRecallZipf(t *testing.T) {
	const (
		records = 100_000
		ops     = 400_000
		k       = 16
	)
	for _, theta := range []float64{0.9, 0.99} {
		keys := zipfKeys(ops, records, theta, 42)
		truth := exactTopK(keys, k)
		tk := NewTopK(256)
		for _, key := range keys {
			tk.Offer(key)
		}
		if r := recallAt(t, tk.Snapshot(), truth, k); r < 0.9 {
			t.Errorf("theta=%v: recall@%d = %.2f, want >= 0.9", theta, k, r)
		}
	}
}

// TestTopKErrorBound: under eviction churn the Space-Saving invariant holds
// for every monitored key: Count-Err ≤ true ≤ Count.
func TestTopKErrorBound(t *testing.T) {
	keys := zipfKeys(200_000, 50_000, 0.99, 7)
	truth := map[uint64]uint64{}
	tk := NewTopK(128)
	for _, key := range keys {
		tk.Offer(key)
		truth[key]++
	}
	for _, it := range tk.Snapshot() {
		exact := truth[it.Key]
		if it.Count < exact {
			t.Fatalf("key %d: count %d underestimates true %d", it.Key, it.Count, exact)
		}
		if it.Count-it.Err > exact {
			t.Fatalf("key %d: count-err %d exceeds true %d", it.Key, it.Count-it.Err, exact)
		}
	}
}

// TestTopKMergeShards: sharding a stream round-robin over 4 sketches and
// merging matches the single-stream sketch — same recall against exact
// counts and near-identical top-16 membership.
func TestTopKMergeShards(t *testing.T) {
	const k = 16
	keys := zipfKeys(400_000, 100_000, 0.99, 11)
	truth := exactTopK(keys, k)

	single := NewTopK(256)
	shards := make([]*TopK, 4)
	for i := range shards {
		shards[i] = NewTopK(256)
	}
	for i, key := range keys {
		single.Offer(key)
		shards[i%len(shards)].Offer(key)
	}
	snaps := make([][]TopKItem, len(shards))
	for i, sh := range shards {
		snaps[i] = sh.Snapshot()
	}
	merged := MergeTopK(k, snaps...)

	if r := recallAt(t, merged, truth, k); r < 0.9 {
		t.Errorf("merged recall@%d = %.2f, want >= 0.9", k, r)
	}
	singleTop := map[uint64]bool{}
	for i, it := range single.Snapshot() {
		if i >= k {
			break
		}
		singleTop[it.Key] = true
	}
	overlap := 0
	for _, it := range merged {
		if singleTop[it.Key] {
			overlap++
		}
	}
	if overlap < k-2 {
		t.Errorf("merged∩single top-%d = %d, want >= %d", k, overlap, k-2)
	}
}

// TestTopKConcurrentSnapshot: Snapshot is safe against a live writer (run
// under -race in CI).
func TestTopKConcurrentSnapshot(t *testing.T) {
	tk := NewTopK(64)
	done := make(chan struct{})
	go func() {
		defer close(done)
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < 200_000; i++ {
			tk.Offer(uint64(rng.Intn(1000)))
		}
	}()
	for {
		select {
		case <-done:
			return
		default:
			_ = tk.Snapshot()
		}
	}
}

// TestTopKZeroAlloc: Offer allocates nothing (the hot paths feed it per
// operation).
func TestTopKZeroAlloc(t *testing.T) {
	tk := NewTopK(32)
	var k uint64
	if n := testing.AllocsPerRun(1000, func() {
		tk.Offer(k)
		k++
	}); n != 0 {
		t.Fatalf("Offer allocates %v per run", n)
	}
}

// TestRegistryHotKeys: only a HotWorker carries a sketch, of
// DefaultHotKeyCap, and TopKeys merges the sketch shards.
func TestRegistryHotKeys(t *testing.T) {
	r := NewWith(0, 1)
	if w0 := r.Worker("plain"); w0.Hot != nil {
		t.Fatal("a plain worker has a sketch")
	}
	w1, w2 := r.HotWorker("a"), r.HotWorker("b")
	if w1.Hot == nil || w1.Hot.Cap() != DefaultHotKeyCap {
		t.Fatalf("worker sketch cap = %v", w1.Hot)
	}
	for i := 0; i < 100; i++ {
		w1.Hot.Offer(7)
		w2.Hot.Offer(7)
		w2.Hot.Offer(9)
	}
	top := r.TopKeys(2)
	if len(top) != 2 || top[0].Key != 7 || top[0].Count != 200 || top[1].Key != 9 {
		t.Fatalf("TopKeys = %+v", top)
	}
	snap := r.TakeSnapshot()
	if len(snap.HotKeys) == 0 || snap.HotKeys[0].Key != 7 {
		t.Fatalf("snapshot hot keys = %+v", snap.HotKeys)
	}
}
