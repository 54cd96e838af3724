package tabletest_test

import (
	"math/rand"
	"testing"

	"dramhit/internal/dramhit"
	"dramhit/internal/dramhitp"
	"dramhit/internal/folklore"
	"dramhit/internal/growt"
	"dramhit/internal/table"
	"dramhit/internal/workload"
)

// TestCrossImplementationEquivalence drives every table implementation with
// the same randomized operation stream and requires identical observable
// behaviour (values and presence) at every read, against a reference map.
// This is the strongest single correctness statement in the repository: all
// the designs implement the same abstract map. The resizing table joins with
// a deliberately tiny initial capacity so the stream drives it through
// several incremental migrations mid-comparison.
func TestCrossImplementationEquivalence(t *testing.T) {
	const slots = 1 << 13
	dh := dramhit.New(dramhit.Config{Slots: slots}).NewSync()
	dp := dramhitp.New(dramhitp.Config{Slots: slots, Producers: 1, Consumers: 2})
	dp.Start()
	defer dp.Close()
	impls := map[string]table.Map{
		"folklore":     folklore.New(slots),
		"dramhit":      dh, // direct mode: New's size rule
		"dramhit-ring": dramhitRing(slots).NewSync(),
		"dramhit-p":    dp.NewSync(),
		"growt":        growt.New(64),
	}
	ref := make(map[uint64]uint64)
	rng := rand.New(rand.NewSource(99))
	keys := workload.UniqueKeys(99, 400)
	keys = append(keys, table.EmptyKey, table.TombstoneKey, table.MovedKey)

	for i := 0; i < 12000; i++ {
		k := keys[rng.Intn(len(keys))]
		switch rng.Intn(8) {
		case 0, 1, 2:
			v := rng.Uint64() >> 16
			ref[k] = v
			for name, m := range impls {
				if !m.Put(k, v) {
					t.Fatalf("op %d: %s rejected Put", i, name)
				}
			}
		case 3:
			ref[k] += 9
			want := ref[k]
			for name, m := range impls {
				if got, ok := m.Upsert(k, 9); !ok || got != want {
					t.Fatalf("op %d: %s Upsert = (%d,%v), want %d", i, name, got, ok, want)
				}
			}
		case 4:
			_, want := ref[k]
			delete(ref, k)
			for name, m := range impls {
				if got := m.Delete(k); got != want {
					t.Fatalf("op %d: %s Delete = %v, want %v", i, name, got, want)
				}
			}
		default:
			want, wok := ref[k]
			for name, m := range impls {
				got, ok := m.Get(k)
				if ok != wok || (ok && got != want) {
					t.Fatalf("op %d: %s Get(%d) = (%d,%v), want (%d,%v)",
						i, name, k, got, ok, want, wok)
				}
			}
		}
	}
	for name, m := range impls {
		if m.Len() != len(ref) {
			t.Errorf("%s: final Len %d, reference %d", name, m.Len(), len(ref))
		}
	}
}
