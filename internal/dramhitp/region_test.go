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
	"dramhit/internal/slotarr"
	"dramhit/internal/table"
)

// The ReadHandle is a dramhit.Handle over the flat partitions as regions, and
// the byte table is a dramhit view over bucket ones. These tests pin the two
// ends of that: with one partition either IS a dramhit table (same responses
// in the same order, same counters, over the same contents), and with several
// every lookup still lands in the partition the writers put the key in — the
// uint64 ring over flat partitions, the byte API and byte ring over bucket
// ones.

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
	pt := New(Config{Slots: 1 << 12, Producers: 1, Consumers: 1})
	pt.Start()
	defer pt.Close()
	// A one-region view runs the ring at any size, as the reader does; New
	// would run a table this small in direct mode.
	dt := dramhit.NewView(dramhit.Config{Slots: 1 << 12},
		dramhit.Regions{Arrays: []*slotarr.Array{slotarr.New(1 << 12)}, Side: new(slotarr.SidePair)})
	w, ds := pt.NewWriteHandle(), dt.NewSync()
	rng := rand.New(rand.NewSource(11))
	// Puts and Deletes only: a WriteHandle holds Upserts back to fold them,
	// which would claim slots in a different order than the Sync adapter. A
	// Barrier after each write has the owner apply and drain it before the
	// next, so colliding keys are placed in stream order, as by the Sync.
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
		w.Barrier()
	}
	w.Barrier()
	w.Close()
	if pt.Len() != dt.Len() {
		t.Fatalf("flat: loaded %d and %d entries", pt.Len(), dt.Len())
	}

	batches := getStream(12, 20000, 3600)
	r, h := pt.NewReadHandle(), dt.NewHandle()
	got, want := runStream(r, batches), runStream(h, batches)
	if len(got) != 20000 || len(want) != 20000 {
		t.Fatalf("flat: %d and %d responses to 20000 Gets", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("flat: completion %d is %+v, dramhit's is %+v", i, got[i], want[i])
		}
	}
	if rs, hs := r.Stats(), h.Stats(); rs != hs || rs.Reprobes == 0 || rs.Hits == 0 || rs.Hits == rs.Gets {
		t.Fatalf("flat: reader stats %+v, dramhit handle's %+v", rs, hs)
	}
	// The synchronous Get is the same direct-mode probe on both.
	for k := uint64(1); k <= 3600; k++ {
		pv, pok := r.Get(k)
		dv, dok := h.Get(k)
		if pv != dv || pok != dok {
			t.Fatalf("flat: Get(%d) = (%d, %v), dramhit's (%d, %v)", k, pv, pok, dv, dok)
		}
	}
	if r.Stats() != h.Stats() {
		t.Fatalf("flat: after direct Gets: reader stats %+v, dramhit handle's %+v", r.Stats(), h.Stats())
	}

	bt := NewBytes(BytesConfig{Slots: 1 << 12, Partitions: 1})
	dbt := dramhit.New(dramhit.Config{Slots: 1 << 12, Layout: table.LayoutBucket})
	bw, dw := bt.NewHandle(), dbt.NewHandle()
	rng = rand.New(rand.NewSource(11))
	for i := 0; i < 6000; i++ {
		k := le(uint64(rng.Intn(3000)) + 1)
		if rng.Intn(5) == 0 {
			bw.DeleteBytes(k)
			dw.DeleteBytes(k)
		} else {
			bw.PutBytes(k, le(uint64(i)))
			dw.PutBytes(k, le(uint64(i)))
		}
	}
	if bt.Len() != dbt.Len() {
		t.Fatalf("bucket: loaded %d and %d entries", bt.Len(), dbt.Len())
	}
	type completion struct {
		id    uint64
		value string
		found bool
	}
	var bgot, bwant []completion
	br, bh := bt.NewHandle(), dbt.NewHandle()
	br.OnByteComplete(func(c dramhit.ByteCompletion) { bgot = append(bgot, completion{c.ID, string(c.Value), c.Found}) })
	bh.OnByteComplete(func(c dramhit.ByteCompletion) { bwant = append(bwant, completion{c.ID, string(c.Value), c.Found}) })
	for bi, b := range getStream(12, 20000, 3600) {
		for _, q := range b {
			k := le(q.Key)
			br.SubmitBytes(table.Get, q.ID, k, nil)
			bh.SubmitBytes(table.Get, q.ID, k, nil)
		}
		if bi%3 == 0 {
			br.FlushBytes()
			bh.FlushBytes()
		}
	}
	br.FlushBytes()
	bh.FlushBytes()
	if len(bgot) != 20000 || !slices.Equal(bgot, bwant) {
		t.Fatalf("bucket: %d and %d byte completions to 20000 lookups, or they differ", len(bgot), len(bwant))
	}
	if rs, hs := br.Stats(), bh.Stats(); rs != hs || rs.Hits == 0 || rs.Hits == rs.Gets {
		t.Fatalf("bucket: reader stats %+v, dramhit handle's %+v", rs, hs)
	}
	for k := uint64(1); k <= 3600; k++ {
		pv, pok := br.GetBytes(le(k))
		dv, dok := bh.GetBytes(le(k))
		if !bytes.Equal(pv, dv) || pok != dok {
			t.Fatalf("bucket: GetBytes(%d) = (%x, %v), dramhit's (%x, %v)", k, pv, pok, dv, dok)
		}
	}
	if br.Stats() != bh.Stats() {
		t.Fatalf("bucket: after GetBytes: reader stats %+v, dramhit handle's %+v", br.Stats(), bh.Stats())
	}
}

// TestReadersMatchOracle loads six partitions while keeping a sequential model
// (a map), then runs four readers at once over every read entry point and
// checks every answer against the model: on flat partitions (loaded through
// the delegation fabric) the pipelined ring with a small response buffer,
// GetBatch and the direct Get; on the byte table's bucket partitions (loaded
// through a handle's synchronous byte writes, keys and values as 8-byte
// encodings) GetBytes and the byte ring. CI runs it under -race at -cpu 1,2,4:
// readers share the partitions, the side slots and nothing else.
func TestReadersMatchOracle(t *testing.T) {
	for _, bucket := range []bool{false, true} {
		name := map[bool]string{false: "flat", true: "bucket"}[bucket]
		var (
			tb               *Table
			bt               *dramhit.Table
			put              func(k, v uint64) bool
			add              func(k, d uint64) bool
			del              func(k uint64)
			settle, shutdown func()
			length           func() int
		)
		if bucket {
			bt = NewBytes(BytesConfig{Slots: 1 << 13, Partitions: 6})
			w := bt.NewHandle()
			put = func(k, v uint64) bool { _, ok := w.PutBytes(le(k), le(v)); return ok }
			add = func(k, d uint64) bool {
				_, ok := w.UpsertBytes(le(k), func(old []byte, present bool) ([]byte, bool) {
					if present {
						d += binary.LittleEndian.Uint64(old)
					}
					return le(d), true
				})
				return ok
			}
			del = func(k uint64) { w.DeleteBytes(le(k)) }
			settle, shutdown, length = func() {}, func() {}, bt.Len
		} else {
			tb = New(Config{Slots: 1 << 13, Producers: 1, Consumers: 2, PartitionsPerConsumer: 3})
			tb.Start()
			w := tb.NewWriteHandle()
			put, add, del = w.Put, w.Upsert, w.Delete
			settle = func() { w.Barrier(); w.Close() }
			shutdown, length = tb.Close, tb.Len
		}
		model := map[uint64]uint64{}
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
		settle()
		if length() != len(model) {
			t.Fatalf("%s: table holds %d entries, model %d", name, length(), len(model))
		}

		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				check := func(how string, k, v uint64, found bool) {
					if mv, ok := model[k]; found != ok || v != mv {
						t.Errorf("%s reader %d: %s(%#x) = (%d, %v), model (%d, %v)", name, g, how, k, v, found, mv, ok)
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
					r := bt.NewHandle()
					for _, k := range keys {
						vb, ok := r.GetBytes(le(k))
						var v uint64
						if ok {
							v = binary.LittleEndian.Uint64(vb)
						}
						check("GetBytes", k, v, ok)
					}
					next := 0
					r.OnByteComplete(func(c dramhit.ByteCompletion) {
						if int(c.ID) != next {
							t.Errorf("%s reader %d: byte completion %d at position %d", name, g, c.ID, next)
						}
						next++
						var v uint64
						if c.Found {
							v = binary.LittleEndian.Uint64(c.Value)
						}
						check("SubmitBytes", keys[c.ID], v, c.Found)
					})
					for i, k := range keys {
						r.SubmitBytes(table.Get, uint64(i), le(k), nil)
					}
					r.FlushBytes()
					if s := r.Stats(); next != len(keys) || s.Gets != uint64(2*len(keys)) {
						t.Errorf("%s reader %d: %d byte completions to %d lookups; Stats.Gets %d", name, g, next, len(keys), s.Gets)
					}
					return
				}
				r := tb.NewReadHandle()
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
					t.Errorf("%s reader %d: %d responses to %d Gets; Stats.Gets %d, want %d", name, g, len(resps), len(keys), s.Gets, 3*len(keys))
				}
			}(g)
		}
		wg.Wait()
		shutdown()
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
