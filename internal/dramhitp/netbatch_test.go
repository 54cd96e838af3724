package dramhitp

import (
	"fmt"
	"math/rand"
	"testing"

	"dramhit/internal/dramhit"
	"dramhit/internal/table"
)

// TestByteGetPipelineOracle drives the partitioned byte table's async byte-Get
// pipeline against a reference map: FIFO completion order, correct values,
// correct hit/miss — including pipelined repeats of the same key.
func TestByteGetPipelineOracle(t *testing.T) {
	tb := NewBytes(BytesConfig{Slots: 1 << 14, Partitions: 4})
	w := tb.NewHandle()
	ref := map[string]string{}
	for i := 0; i < 300; i++ {
		k, v := fmt.Sprintf("pk-%03d", i), fmt.Sprintf("pv-%d", i)
		if i%3 != 0 { // leave a third of the keyspace absent
			w.PutBytes([]byte(k), []byte(v))
			ref[k] = v
		}
	}

	r := tb.NewHandle()
	type exp struct {
		key   string
		val   string
		found bool
	}
	var queue []exp
	done := 0
	r.OnByteComplete(func(c dramhit.ByteCompletion) {
		e := queue[done]
		if c.ID != uint64(done) {
			t.Fatalf("completion id %d at position %d: not FIFO", c.ID, done)
		}
		done++
		if c.Found != e.found {
			t.Fatalf("Get %q: found=%v, want %v", e.key, c.Found, e.found)
		}
		if c.Found && string(c.Value) != e.val {
			t.Fatalf("Get %q = %q, want %q", e.key, c.Value, e.val)
		}
	})

	rng := rand.New(rand.NewSource(3))
	const lookups = 5000
	for i := 0; i < lookups; i++ {
		k := fmt.Sprintf("pk-%03d", rng.Intn(330)) // includes never-written keys
		v, ok := ref[k]
		queue = append(queue, exp{key: k, val: v, found: ok})
		r.SubmitBytes(table.Get, uint64(i), []byte(k), nil)
		if rng.Intn(64) == 0 {
			r.FlushBytes()
		}
	}
	r.FlushBytes()
	if done != lookups {
		t.Fatalf("completed %d of %d lookups", done, lookups)
	}
	if r.PendingBytes() != 0 {
		t.Fatalf("PendingBytes = %d after flush", r.PendingBytes())
	}
	if rs := r.Stats(); rs.Gets != lookups || rs.Hits == 0 || rs.Hits == lookups {
		t.Fatalf("counters off: Gets=%d Hits=%d", rs.Gets, rs.Hits)
	}
}

// TestByteSubmitWritesOracle sends Puts and Deletes, not only Gets, through
// the byte ring over several partitions, with same-key runs inside one
// window, and checks every completion against a reference map applied in
// submission order: a Put reports whether the key existed, a Delete whether
// it removed one, a Get the value at its point in the stream. A second
// handle's synchronous reads then see the model's final state.
func TestByteSubmitWritesOracle(t *testing.T) {
	tb := NewBytes(BytesConfig{Slots: 256, Partitions: 5})
	h := tb.NewHandle()
	type exp struct {
		op    table.Op
		key   string
		val   string
		found bool
	}
	ref := map[string]string{}
	var queue []exp
	done := 0
	h.OnByteComplete(func(c dramhit.ByteCompletion) {
		e := queue[c.ID]
		if c.ID != uint64(done) || c.Op != e.op {
			t.Fatalf("completion %d (%v) at position %d, want a %v", c.ID, c.Op, done, e.op)
		}
		done++
		if c.Found != e.found || (e.op == table.Get && string(c.Value) != e.val) {
			t.Fatalf("request %d, %v %q = (%q, %v), want (%q, %v)", c.ID, e.op, e.key, c.Value, c.Found, e.val, e.found)
		}
	})
	rng := rand.New(rand.NewSource(17))
	const n = 20000
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("wk-%03d", rng.Intn(400))
		if i > 0 && rng.Intn(4) == 0 {
			k = queue[i-1].key // same-key run in flight together
		}
		e := exp{key: k}
		old, present := ref[k]
		var val []byte
		switch rng.Intn(10) {
		case 0, 1, 2, 3:
			e.op, e.found = table.Put, present
			val = []byte(fmt.Sprintf("v%d-%s", i, k))
			ref[k] = string(val)
		case 4, 5:
			e.op, e.found = table.Delete, present
			delete(ref, k)
		default:
			e.op, e.val, e.found = table.Get, old, present
		}
		queue = append(queue, e)
		h.SubmitBytes(e.op, uint64(i), []byte(k), val)
		if rng.Intn(48) == 0 {
			h.FlushBytes()
		}
	}
	h.FlushBytes()
	if done != n {
		t.Fatalf("completed %d of %d requests", done, n)
	}
	if tb.Len() != len(ref) {
		t.Fatalf("table holds %d entries, model %d", tb.Len(), len(ref))
	}
	r := tb.NewHandle()
	for i := 0; i < 400; i++ {
		k := fmt.Sprintf("wk-%03d", i)
		want, wok := ref[k]
		if v, ok := r.GetBytes([]byte(k)); ok != wok || string(v) != want {
			t.Fatalf("GetBytes(%q) = (%q, %v), model (%q, %v)", k, v, ok, want, wok)
		}
	}
}
