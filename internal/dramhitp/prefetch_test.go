package dramhitp

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"testing"

	"dramhit/internal/table"
)

// readDigest loads a table through one WriteHandle (per-partition delegation
// queues are FIFO, so slot placement is deterministic), then folds every
// response of a fixed-seed pipelined lookup stream, in completion order, and
// the reader's counters into one number.
func readDigest(cfg Config) uint64 {
	cfg.Slots, cfg.Producers, cfg.Consumers = 1<<13, 1, 2
	tb := New(cfg)
	tb.Start()
	defer tb.Close()
	w := tb.NewWriteHandle()
	rng := rand.New(rand.NewSource(20230915))
	for i := 0; i < 9000; i++ {
		k := uint64(rng.Intn(5000)) + 1
		switch rng.Intn(6) {
		case 0:
			w.Delete(k)
		case 1:
			w.Upsert(k, 3)
		default:
			w.Put(k, k*7+uint64(i))
		}
	}
	w.Put(table.EmptyKey, 11)
	w.Barrier()
	w.Close()

	f := fnv.New64a()
	var buf [8]byte
	u64 := func(vs ...uint64) {
		for _, v := range vs {
			binary.LittleEndian.PutUint64(buf[:], v)
			f.Write(buf[:])
		}
	}
	r := tb.NewReadHandle()
	resps := make([]table.Response, 256)
	emit := func(n int) {
		for _, rs := range resps[:n] {
			found := uint64(0)
			if rs.Found {
				found = 1
			}
			u64(rs.ID, rs.Value, found)
		}
	}
	var batch []table.Request
	for i := 0; i < 20000; i++ {
		k := uint64(rng.Intn(6000)) + 1
		if rng.Intn(50) == 0 {
			k = table.EmptyKey
		}
		batch = append(batch, table.Request{Op: table.Get, Key: k, ID: uint64(i)})
		if len(batch) < 1+rng.Intn(48) {
			continue
		}
		for rem := batch; len(rem) > 0; {
			nq, nr := r.Submit(rem, resps)
			emit(nr)
			rem = rem[nq:]
		}
		batch = batch[:0]
		if rng.Intn(3) == 0 {
			for done := false; !done; {
				var nr int
				nr, done = r.Flush(resps)
				emit(nr)
			}
		}
	}
	for done := false; !done; {
		var nr int
		nr, done = r.Flush(resps)
		emit(nr)
	}

	// The two zeros hold the places of the tag-sidecar counters the pinned
	// digests were computed with; no flat probe has a sidecar any more.
	rs := r.Stats()
	u64(rs.Gets, rs.Hits, rs.PiggybackedGets, rs.KeyLines, rs.TagSkips, 0, 0)
	return f.Sum64()
}

// TestPrefetchInvisible is dramhit's test of the same name for the
// partitioned reader: the default and -tags purego builds must both reproduce
// the constants. flat-none, the default table (named for the tag sidecar it
// lacks, from when the sidecar was the default), is from the commit before
// the hardware prefetch. flat-scalar was re-pinned once, when the reader
// became dramhit's ring: with the old reader's accounting emulated (no
// KeyLines under the scalar kernel) the ring reproduced the old constant
// 0x3764f92d96854c71, so no response and no completion order moved. The
// scalar reader now counts its line visits as every other kernel does, which
// makes its digest flat-none's. Both were re-pinned again when the reader
// stopped piggybacking duplicate lookups and began to probe a prefetched line
// pair per visit (completions move, answers do not: the table is read-only
// during the stream). The byte ring's digest is pinned in dramhit.
func TestPrefetchInvisible(t *testing.T) {
	for _, c := range []struct {
		name string
		cfg  Config
		want uint64
	}{
		{"flat-none", Config{}, 0xea4a4c87b6ce8d0a},
		{"flat-scalar", Config{ProbeKernel: table.KernelScalar}, 0xea4a4c87b6ce8d0a},
	} {
		if got := readDigest(c.cfg); got != c.want {
			t.Errorf("%s: digest %#x, want %#x", c.name, got, c.want)
		}
	}
}
