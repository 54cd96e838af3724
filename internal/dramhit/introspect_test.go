package dramhit

import (
	"encoding/binary"
	"sort"
	"testing"

	"dramhit/internal/obs"
	"dramhit/internal/table"
	"dramhit/internal/workload"
)

// TestHotKeysRecallThroughSubmit checks the hot-key view a table feeds
// itself: zipf Gets through an observed flat handle's Submit, where the
// handle offers 1 in 1<<obs.SampleShift requests to its sketch
// shard. The registry's merged top 16 must hold at least 90% of the
// stream's exact top 16. The stream is 2^20 Gets because the sampled feed
// needs a few hundred samples of the rank-16 key before the ranking
// settles; at 2^15 Gets it sees a few dozen and recall falls to ~0.75.
func TestHotKeysRecallThroughSubmit(t *testing.T) {
	const (
		size      = 1 << 17
		ops       = 1 << 20
		k         = 16
		minRecall = 0.9
	)
	for _, theta := range []float64{0.90, 0.99} {
		reg := obs.NewWith(0, 1)
		h := New(Config{Slots: size, Observe: reg}).NewHandle()
		ks := workload.NewKeyStream(42, size/2, theta)
		exact := map[uint64]uint64{}
		reqs := make([]table.Request, 16)
		resps := make([]table.Response, len(reqs))
		for n := 0; n < ops; n += len(reqs) {
			for i := range reqs {
				key := ks.Next()
				exact[key]++
				reqs[i] = table.Request{Op: table.Get, Key: key, ID: uint64(i)}
			}
			for rem := reqs; len(rem) > 0; {
				nr, _ := h.Submit(rem, resps)
				rem = rem[nr:]
			}
			for _, done := h.Flush(resps); !done; _, done = h.Flush(resps) {
			}
		}
		keys := make([]uint64, 0, len(exact))
		for key := range exact {
			keys = append(keys, key)
		}
		sort.Slice(keys, func(i, j int) bool { return exact[keys[i]] > exact[keys[j]] })
		truth := map[uint64]bool{}
		for _, key := range keys[:k] {
			truth[key] = true
		}
		hit := 0
		for _, it := range reg.TopKeys(k) {
			if truth[it.Key] {
				hit++
			}
		}
		recall := float64(hit) / k
		t.Logf("zipf %.2f: recall@%d %.3f", theta, k, recall)
		if recall < minRecall {
			t.Errorf("zipf %.2f: recall@%d %.3f, want >= %.1f", theta, k, recall, minRecall)
		}
	}
}

// TestHotKeysThroughSyncBytes: the synchronous byte ops feed the hot-key
// sketch as SubmitBytes does, each offering its key's hash. A zipf-0.99
// stream through PutBytes, GetBytes and UpsertBytes only must rank its
// hottest key first.
func TestHotKeysThroughSyncBytes(t *testing.T) {
	reg := obs.NewWith(0, 1)
	tbl := New(Config{Slots: 1 << 12, Layout: table.LayoutBucket, Observe: reg})
	h := tbl.NewHandle()
	ks := workload.NewKeyStream(7, 1<<12, 0.99)
	exact := map[uint64]int{}
	hottest := uint64(0)
	bump := func(old []byte, present bool) ([]byte, bool) { return le(1), true }
	for i := 0; i < 1<<16; i++ {
		key := ks.Next()
		if exact[key]++; exact[key] > exact[hottest] {
			hottest = key
		}
		switch i % 3 {
		case 0:
			h.PutBytes(le(key), le(key))
		case 1:
			h.GetBytes(le(key))
		default:
			h.UpsertBytes(le(key), bump)
		}
	}
	top := reg.TopKeys(1)
	if want := tbl.Bucket().HashOf(le(hottest)); len(top) != 1 || top[0].Key != want {
		t.Fatalf("top key %+v, want the hash %#x of key %d (%d of %d ops)", top, want, hottest, exact[hottest], 1<<16)
	}
}

// TestHeatmapMatchesTable scrapes the registry's heatmap of a bucket table
// filled to 75% through its byte API. Its fill gauge must agree with the
// table's own Len()/slots, and its probe_loads mean must read about one
// line per lookup, the bucket layout's headline cost.
func TestHeatmapMatchesTable(t *testing.T) {
	const size = 1 << 17
	reg := obs.NewWith(0, 1)
	tbl := New(Config{Slots: size, Layout: table.LayoutBucket, Observe: reg})
	h := tbl.NewHandle()
	one := binary.LittleEndian.AppendUint64(nil, 1)
	for _, key := range workload.UniqueKeys(42, size*3/4) {
		h.PutBytes(binary.LittleEndian.AppendUint64(nil, key), one)
	}
	tfill := float64(tbl.Len()) / size
	var hm *obs.Heatmap
	for _, m := range reg.Heatmaps() {
		if m.Source == "dramhit" {
			hm = &m
		}
	}
	if hm == nil {
		t.Fatal("no dramhit heatmap registered")
	}
	loads := -1.0
	for _, d := range hm.Dists {
		if d.Name == "probe_loads" {
			loads = d.Mean
		}
	}
	hfill := hm.Gauges["fill"]
	t.Logf("heatmap fill %.3f (table %.3f), probe_loads mean %.3f", hfill, tfill, loads)
	if d := hfill - tfill; d > 0.1 || d < -0.1 {
		t.Errorf("heatmap fill %.3f, table fill %.3f: want within 0.1", hfill, tfill)
	}
	if loads < 0.9 || loads > 1.5 {
		t.Errorf("probe_loads mean %.3f, want in [0.9, 1.5]", loads)
	}
}
