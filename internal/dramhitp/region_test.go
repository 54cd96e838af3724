package dramhitp

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"dramhit/internal/dramhit"
	"dramhit/internal/table"
)

// The ReadHandle is a dramhit.Handle over the partitions as regions. These
// tests pin the two ends of that: with one partition it IS a dramhit handle
// (same responses in the same order, same counters, over the same contents),
// and with several every lookup still lands in the partition the writers put
// the key in — the uint64 ring over flat partitions, the byte API and byte
// ring over bucket ones.

type regionLayout struct {
	name string
	cfg  Config
}

var regionLayouts = []regionLayout{
	{"flat", Config{}},
}

// le is the 8-byte little-endian encoding the byte-API ports of uint64
// workloads use for keys and values.
func le(v uint64) []byte { return binary.LittleEndian.AppendUint64(nil, v) }

// getStream is a fixed-seed lookup stream over present, absent and reserved
// keys with near repeats (same-key lookups in flight together), cut into
// batches.
func getStream(seed int64, n, keyspace int) [][]table.Request {
	rng := rand.New(rand.NewSource(seed))
	var batches [][]table.Request
	var batch []table.Request
	var last uint64
	for i := 0; i < n; i++ {
		k := uint64(rng.Intn(keyspace)) + 1
		switch rng.Intn(20) {
		case 0:
			k = table.EmptyKey
		case 1, 2, 3:
			if i > 0 {
				k = last
			}
		}
		last = k
		batch = append(batch, table.Request{Op: table.Get, Key: k, ID: uint64(i)})
		if len(batch) >= 1+rng.Intn(48) {
			batches, batch = append(batches, batch), nil
		}
	}
	return append(batches, batch)
}

// submitter is the part of both handle types a Get stream goes through.
type submitter interface {
	Submit(reqs []table.Request, resps []table.Response) (nreq, nresp int)
	Flush(resps []table.Response) (nresp int, done bool)
}

// runStream pushes the batches through h, flushing after every third, and
// returns the responses in completion order.
func runStream(h submitter, batches [][]table.Request) []table.Response {
	var out []table.Response
	resps := make([]table.Response, 32)
	for bi, b := range batches {
		for rem := b; len(rem) > 0; {
			nq, nr := h.Submit(rem, resps)
			out = append(out, resps[:nr]...)
			rem = rem[nq:]
		}
		if bi%3 != 0 && bi != len(batches)-1 {
			continue
		}
		for done := false; !done; {
			var nr int
			nr, done = h.Flush(resps)
			out = append(out, resps[:nr]...)
		}
	}
	return out
}

// TestOnePartitionIsADramhitTable: a one-partition DRAMHiT-P table and a
// dramhit table given the same updates in the same order hold the same slots,
// so the same Get stream must come back with the same responses in the same
// completion order and leave the same Stats — the region route degenerates to
// the single table's, and nothing else differs between the two readers. On
// the bucket layout the same holds for the byte API and the byte ring.
func TestOnePartitionIsADramhitTable(t *testing.T) {
	for _, c := range regionLayouts {
		cfg := c.cfg
		cfg.Slots, cfg.Producers, cfg.Consumers = 1<<12, 1, 1
		pt := New(cfg)
		pt.Start()
		dt := dramhit.New(dramhit.Config{Slots: cfg.Slots, Layout: cfg.Layout})
		w, ds := pt.NewWriteHandle(), dt.NewSync()
		rng := rand.New(rand.NewSource(11))
		// Puts and Deletes only: a WriteHandle holds Upserts back to fold them,
		// which would claim slots in a different order than the Sync adapter.
		for i := 0; i < 6000; i++ {
			k := uint64(rng.Intn(3000)) + 1
			if i%400 == 0 {
				k = table.EmptyKey
			}
			if rng.Intn(5) == 0 {
				w.Delete(k)
				ds.Delete(k)
			} else {
				w.Put(k, k*7+uint64(i))
				ds.Put(k, k*7+uint64(i))
			}
		}
		w.Barrier()
		w.Close()
		if pt.Len() != dt.Len() {
			t.Fatalf("%s: loaded %d and %d entries", c.name, pt.Len(), dt.Len())
		}

		batches := getStream(12, 20000, 3600)
		r, h := pt.NewReadHandle(), dt.NewHandle()
		got, want := runStream(r, batches), runStream(h, batches)
		if len(got) != 20000 || len(want) != 20000 {
			t.Fatalf("%s: %d and %d responses to 20000 Gets", c.name, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: completion %d is %+v, dramhit's is %+v", c.name, i, got[i], want[i])
			}
		}
		if rs, hs := r.Stats(), h.Stats(); rs != hs || rs.Reprobes == 0 || rs.Hits == 0 || rs.Hits == rs.Gets {
			t.Fatalf("%s: reader stats %+v, dramhit handle's %+v", c.name, rs, hs)
		}
		// The synchronous Get is the same direct-mode probe on both.
		for k := uint64(1); k <= 3600; k++ {
			pv, pok := r.Get(k)
			dv, dok := h.Get(k)
			if pv != dv || pok != dok {
				t.Fatalf("%s: Get(%d) = (%d, %v), dramhit's (%d, %v)", c.name, k, pv, pok, dv, dok)
			}
		}
		if r.Stats() != h.Stats() {
			t.Fatalf("%s: after direct Gets: reader stats %+v, dramhit handle's %+v", c.name, r.Stats(), h.Stats())
		}
		pt.Close()
	}

	pt := New(Config{Slots: 1 << 12, Producers: 1, Consumers: 1, Layout: table.LayoutBucket})
	dt := dramhit.New(dramhit.Config{Slots: 1 << 12, Layout: table.LayoutBucket})
	w, dw := pt.NewWriteHandle(), dt.NewHandle()
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 6000; i++ {
		k := le(uint64(rng.Intn(3000)) + 1)
		if rng.Intn(5) == 0 {
			w.DeleteBytes(k)
			dw.DeleteBytes(k)
		} else {
			w.PutBytes(k, le(uint64(i)))
			dw.PutBytes(k, le(uint64(i)))
		}
	}
	w.Close()
	if pt.Len() != dt.Len() {
		t.Fatalf("bucket: loaded %d and %d entries", pt.Len(), dt.Len())
	}
	type completion struct {
		id    uint64
		value string
		found bool
	}
	var got, want []completion
	r, h := pt.NewReadHandle(), dt.NewHandle()
	r.OnGetBytesComplete(func(id uint64, v []byte, found bool) { got = append(got, completion{id, string(v), found}) })
	h.OnByteComplete(func(c dramhit.ByteCompletion) { want = append(want, completion{c.ID, string(c.Value), c.Found}) })
	for bi, b := range getStream(12, 20000, 3600) {
		for _, q := range b {
			k := le(q.Key)
			r.SubmitGetBytes(q.ID, k)
			h.SubmitBytes(table.Get, q.ID, k, nil)
		}
		if bi%3 == 0 {
			r.FlushGetBytes()
			h.FlushBytes()
		}
	}
	r.FlushGetBytes()
	h.FlushBytes()
	if len(got) != 20000 || !slices.Equal(got, want) {
		t.Fatalf("bucket: %d and %d byte completions to 20000 lookups, or they differ", len(got), len(want))
	}
	if rs, hs := r.Stats(), h.Stats(); rs != hs || rs.Hits == 0 || rs.Hits == rs.Gets {
		t.Fatalf("bucket: reader stats %+v, dramhit handle's %+v", rs, hs)
	}
	for k := uint64(1); k <= 3600; k++ {
		pv, pok := r.GetBytes(le(k))
		dv, dok := h.GetBytes(le(k))
		if !bytes.Equal(pv, dv) || pok != dok {
			t.Fatalf("bucket: GetBytes(%d) = (%x, %v), dramhit's (%x, %v)", k, pv, pok, dv, dok)
		}
	}
	if r.Stats() != h.Stats() {
		t.Fatalf("bucket: after GetBytes: reader stats %+v, dramhit handle's %+v", r.Stats(), h.Stats())
	}
	pt.Close()
}

// TestReadersMatchOracle loads six partitions while keeping a sequential model
// (a map), then runs four readers at once over every read entry point and
// checks every answer against the model: on flat partitions (loaded through
// the delegation fabric) the pipelined ring with a small response buffer,
// GetBatch and the direct Get; on bucket partitions (loaded through the
// synchronous byte writes, keys and values as 8-byte encodings) GetBytes and
// the byte-lookup ring. CI runs it under -race at -cpu 1,2,4: readers share
// the partitions, the side slots and nothing else.
func TestReadersMatchOracle(t *testing.T) {
	for _, c := range append(regionLayouts, regionLayout{"bucket", Config{Layout: table.LayoutBucket}}) {
		cfg := c.cfg
		cfg.Slots, cfg.Producers, cfg.Consumers, cfg.PartitionsPerConsumer = 1<<13, 1, 2, 3
		bucket := cfg.Layout == table.LayoutBucket
		tb := New(cfg)
		tb.Start()
		model := map[uint64]uint64{}
		w := tb.NewWriteHandle()
		put, add, del := w.Put, w.Upsert, w.Delete
		if bucket {
			put = func(k, v uint64) bool { return w.PutBytes(le(k), le(v)) }
			add = func(k, d uint64) bool {
				return w.UpsertBytes(le(k), func(old []byte, present bool) ([]byte, bool) {
					if present {
						d += binary.LittleEndian.Uint64(old)
					}
					return le(d), true
				})
			}
			del = func(k uint64) { w.DeleteBytes(le(k)) }
		}
		rng := rand.New(rand.NewSource(21))
		for i := 0; i < 9000; i++ {
			k := uint64(rng.Intn(4000)) + 1
			if i%500 == 0 {
				k = table.TombstoneKey
			}
			switch rng.Intn(6) {
			case 0:
				del(k)
				delete(model, k)
			case 1:
				add(k, 3)
				model[k] += 3
			default:
				put(k, k*5+uint64(i))
				model[k] = k*5 + uint64(i)
			}
		}
		w.Barrier()
		w.Close()
		if tb.Len() != len(model) {
			t.Fatalf("%s: table holds %d entries, model %d", c.name, tb.Len(), len(model))
		}

		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				r := tb.NewReadHandle()
				check := func(how string, k, v uint64, found bool) {
					if mv, ok := model[k]; found != ok || v != mv {
						t.Errorf("%s reader %d: %s(%#x) = (%d, %v), model (%d, %v)", c.name, g, how, k, v, found, mv, ok)
					}
				}
				batches := getStream(int64(30+g), 6000, 4800)
				var keys []uint64 // by request ID
				for _, b := range batches {
					for _, q := range b {
						keys = append(keys, q.Key)
					}
				}
				if bucket {
					for _, k := range keys {
						vb, ok := r.GetBytes(le(k))
						var v uint64
						if ok {
							v = binary.LittleEndian.Uint64(vb)
						}
						check("GetBytes", k, v, ok)
					}
					next := 0
					r.OnGetBytesComplete(func(id uint64, value []byte, ok bool) {
						if int(id) != next {
							t.Errorf("%s reader %d: byte completion %d at position %d", c.name, g, id, next)
						}
						next++
						var v uint64
						if ok {
							v = binary.LittleEndian.Uint64(value)
						}
						check("SubmitGetBytes", keys[id], v, ok)
					})
					for i, k := range keys {
						r.SubmitGetBytes(uint64(i), le(k))
					}
					r.FlushGetBytes()
					if s := r.Stats(); next != len(keys) || s.Gets != uint64(2*len(keys)) {
						t.Errorf("%s reader %d: %d byte completions to %d lookups; Stats.Gets %d", c.name, g, next, len(keys), s.Gets)
					}
					return
				}
				resps := runStream(r, batches)
				for _, rs := range resps {
					check("Submit", keys[rs.ID], rs.Value, rs.Found)
				}
				vals, found := make([]uint64, len(keys)), make([]bool, len(keys))
				r.GetBatch(keys, vals, found)
				for i, k := range keys {
					check("GetBatch", k, vals[i], found[i])
					v, ok := r.Get(k)
					check("Get", k, v, ok)
				}
				if s := r.Stats(); len(resps) != len(keys) || s.Gets != uint64(3*len(keys)) {
					t.Errorf("%s reader %d: %d responses to %d Gets; Stats.Gets %d, want %d", c.name, g, len(resps), len(keys), s.Gets, 3*len(keys))
				}
			}(g)
		}
		wg.Wait()
		tb.Close()
	}
}

// TestReadSubmitRejectsUpdates: the read ring's update drains CAS, which a
// single-writer partition does not admit, and a ReadHandle that answered a
// Put as if it were a Get (as it did before it checked Op) hides the
// caller's bug. Anything but a Get panics before a request is consumed.
func TestReadSubmitRejectsUpdates(t *testing.T) {
	tb := New(Config{Slots: 256, Producers: 1, Consumers: 1})
	tb.Start()
	defer tb.Close()
	r := tb.NewReadHandle()
	resps := make([]table.Response, 4)
	for _, op := range []table.Op{table.Put, table.Upsert, table.Delete} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, "accepts only Get") {
					t.Fatalf("Submit(%v) did not panic as documented: %q", op, msg)
				}
			}()
			r.Submit([]table.Request{{Op: table.Get, Key: 1}, {Op: op, Key: 2, Value: 9}}, resps)
		}()
	}
	if n, done := r.Flush(resps); n != 0 || !done || r.Stats().Gets != 0 || tb.Len() != 0 {
		t.Fatalf("a rejected batch left work behind: %d responses, drained %v, %d Gets, %d entries", n, done, r.Stats().Gets, tb.Len())
	}
}
