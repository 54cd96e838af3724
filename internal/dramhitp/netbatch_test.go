package dramhitp

import (
	"fmt"
	"math/rand"
	"testing"

	"dramhit/internal/table"
)

// TestByteGetPipelineOracle drives the partitioned reader's async byte-Get
// pipeline against a reference map: FIFO completion order, correct values,
// correct hit/miss — including pipelined repeats of the same key.
func TestByteGetPipelineOracle(t *testing.T) {
	tb := New(Config{Slots: 1 << 14, Producers: 1, Consumers: 4, Layout: table.LayoutBucket})
	defer tb.Close()
	w := tb.NewWriteHandle()
	ref := map[string]string{}
	for i := 0; i < 300; i++ {
		k, v := fmt.Sprintf("pk-%03d", i), fmt.Sprintf("pv-%d", i)
		if i%3 != 0 { // leave a third of the keyspace absent
			w.PutBytes([]byte(k), []byte(v))
			ref[k] = v
		}
	}
	w.Close()

	r := tb.NewReadHandle()
	type exp struct {
		key   string
		val   string
		found bool
	}
	var queue []exp
	done := 0
	r.OnGetBytesComplete(func(id uint64, value []byte, found bool) {
		e := queue[done]
		if id != uint64(done) {
			t.Fatalf("completion id %d at position %d: not FIFO", id, done)
		}
		done++
		if found != e.found {
			t.Fatalf("Get %q: found=%v, want %v", e.key, found, e.found)
		}
		if found && string(value) != e.val {
			t.Fatalf("Get %q = %q, want %q", e.key, value, e.val)
		}
	})

	rng := rand.New(rand.NewSource(3))
	const lookups = 5000
	for i := 0; i < lookups; i++ {
		k := fmt.Sprintf("pk-%03d", rng.Intn(330)) // includes never-written keys
		v, ok := ref[k]
		queue = append(queue, exp{key: k, val: v, found: ok})
		r.SubmitGetBytes(uint64(i), []byte(k))
		if rng.Intn(64) == 0 {
			r.FlushGetBytes()
		}
	}
	r.FlushGetBytes()
	if done != lookups {
		t.Fatalf("completed %d of %d lookups", done, lookups)
	}
	if r.PendingGetBytes() != 0 {
		t.Fatalf("PendingGetBytes = %d after flush", r.PendingGetBytes())
	}
	if rs := r.Stats(); rs.Gets != lookups || rs.Hits == 0 || rs.Hits == lookups {
		t.Fatalf("counters off: Gets=%d Hits=%d", rs.Gets, rs.Hits)
	}
}
