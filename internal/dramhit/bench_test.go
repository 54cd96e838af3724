package dramhit

import (
	"encoding/binary"
	"fmt"
	"testing"

	"dramhit/internal/table"
	"dramhit/internal/workload"
)

// The Layer-1 (real execution) benchmarks measure the Go implementation on
// the host machine. Absolute numbers reflect the Go runtime and core count,
// not the paper's testbed; cross-design ratios on one host are the
// interesting signal. The paper's figures are reproduced by the simulated
// benchmarks in the repository root (bench_test.go).

func BenchmarkPutBatchPipelined(b *testing.B) {
	tbl := New(Config{Slots: uint64(b.N)*2 + 4096})
	h := tbl.NewHandle()
	keys := workload.UniqueKeys(1, b.N)
	vals := make([]uint64, b.N)
	b.ResetTimer()
	h.PutBatch(keys, vals)
}

func BenchmarkGetBatchPipelined(b *testing.B) {
	const size = 1 << 20
	tbl := New(Config{Slots: size})
	h := tbl.NewHandle()
	keys := workload.UniqueKeys(2, size*3/4)
	vals := make([]uint64, len(keys))
	h.PutBatch(keys, vals)
	found := make([]bool, len(keys))
	b.ResetTimer()
	for done := 0; done < b.N; done += len(keys) {
		n := len(keys)
		if b.N-done < n {
			n = b.N - done
		}
		h.GetBatch(keys[:n], vals[:n], found[:n])
	}
}

func BenchmarkGetSyncAdapter(b *testing.B) {
	// The same lookups without the pipeline (window still fills but each
	// op flushes): quantifies what the batched interface buys on this host.
	const size = 1 << 20
	tbl := New(Config{Slots: size})
	h := tbl.NewHandle()
	keys := workload.UniqueKeys(3, size*3/4)
	vals := make([]uint64, len(keys))
	h.PutBatch(keys, vals)
	s := tbl.NewSync()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Get(keys[i%len(keys)])
	}
}

func BenchmarkUpsertBatch(b *testing.B) {
	const size = 1 << 18
	tbl := New(Config{Slots: size})
	h := tbl.NewHandle()
	keys := workload.UniqueKeys(4, size/2)
	b.ResetTimer()
	for done := 0; done < b.N; done += len(keys) {
		n := len(keys)
		if b.N-done < n {
			n = b.N - done
		}
		h.UpsertBatch(keys[:n], 1)
	}
}

func BenchmarkWindowSweep(b *testing.B) {
	// Ablation on real hardware: issuing a window of independent loads
	// back-to-back exploits the CPU's memory-level parallelism even from
	// Go; deeper windows overlap more misses.
	const size = 1 << 22 // 64 MB of slots: larger than typical LLC
	keys := workload.UniqueKeys(5, size/2)
	vals := make([]uint64, len(keys))
	found := make([]bool, len(keys))
	for _, w := range []int{1, 4, 16, 32} {
		b.Run(byWindow(w), func(b *testing.B) {
			tbl := New(Config{Slots: size, PrefetchWindow: w})
			h := tbl.NewHandle()
			h.PutBatch(keys, vals)
			b.ResetTimer()
			for done := 0; done < b.N; done += len(keys) {
				n := len(keys)
				if b.N-done < n {
					n = b.N - done
				}
				h.GetBatch(keys[:n], vals[:n], found[:n])
			}
		})
	}
}

func byWindow(w int) string {
	return "window" + string(rune('0'+w/10)) + string(rune('0'+w%10))
}

// BenchmarkProbeKernel is the scalar-vs-SWAR A/B: the same 75%-fill
// pipelined workload under each Config.ProbeKernel, for Gets (the paper's
// headline op) and an insert-heavy mix. Fixed seeds keep the runs
// benchstat-comparable; results/kernel-ab.txt archives a capture.
func BenchmarkProbeKernel(b *testing.B) {
	const size = 1 << 20
	kernels := []table.ProbeKernel{table.KernelScalar, table.KernelSWAR}
	for _, k := range kernels {
		b.Run(k.String()+"/get75", func(b *testing.B) {
			tbl := New(Config{Slots: size, ProbeKernel: k})
			h := tbl.NewHandle()
			keys := workload.UniqueKeys(11, size*3/4)
			vals := make([]uint64, len(keys))
			h.PutBatch(keys, vals)
			found := make([]bool, len(keys))
			b.ResetTimer()
			for done := 0; done < b.N; done += len(keys) {
				n := len(keys)
				if b.N-done < n {
					n = b.N - done
				}
				h.GetBatch(keys[:n], vals[:n], found[:n])
			}
		})
	}
	for _, k := range kernels {
		b.Run(k.String()+"/put75", func(b *testing.B) {
			// Timed region: inserting the 50%→75% fill band of a prefilled
			// table, the regime where probe chains actually form. Filling
			// from empty would mostly measure home-slot inserts, which both
			// kernels resolve with the same single load.
			keys := workload.UniqueKeys(12, size*3/4)
			prefill, grow := keys[:size/2], keys[size/2:]
			vals := make([]uint64, len(keys))
			b.ResetTimer()
			for done := 0; done < b.N; done += len(grow) {
				b.StopTimer()
				tbl := New(Config{Slots: size, ProbeKernel: k})
				h := tbl.NewHandle()
				h.PutBatch(prefill, vals[:len(prefill)])
				b.StartTimer()
				n := len(grow)
				if b.N-done < n {
					n = b.N - done
				}
				h.PutBatch(grow[:n], vals[:n])
			}
		})
	}
	for _, k := range kernels {
		b.Run(k.String()+"/upsert75", func(b *testing.B) {
			tbl := New(Config{Slots: size, ProbeKernel: k})
			h := tbl.NewHandle()
			keys := workload.UniqueKeys(13, size*3/4)
			h.UpsertBatch(keys, 1) // preload: steady state is all-hits
			b.ResetTimer()
			for done := 0; done < b.N; done += len(keys) {
				n := len(keys)
				if b.N-done < n {
					n = b.N - done
				}
				h.UpsertBatch(keys[:n], 1)
			}
		})
	}
}

func BenchmarkMixedPipeline(b *testing.B) {
	tbl := New(Config{Slots: 1 << 18})
	h := tbl.NewHandle()
	ms := workload.NewMixedStream(7, 1<<16, 0.9, 0.8)
	reqs := make([]table.Request, 16)
	resps := make([]table.Response, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i += len(reqs) {
		for j := range reqs {
			op := ms.Next()
			kind := table.Put
			if op.Op == workload.Get {
				kind = table.Get
			}
			reqs[j] = table.Request{Op: kind, Key: op.Key, Value: 1, ID: uint64(j)}
		}
		rem := reqs[:]
		for len(rem) > 0 {
			nreq, _ := h.Submit(rem, resps)
			rem = rem[nreq:]
		}
	}
	h.Flush(resps)
}

// BenchmarkRingHot is the per-layer number for the prefetch ring's CPU cost:
// a 2^17-slot table stays in L2, so nothing misses and what one op costs is
// the ring bookkeeping around its probe. Batches of 256 through Submit then
// Flush at the default window, as the gated benchmark's tbl-upsert-hot does:
// zipf-0.99 Upserts (a contended atomic add on a few hot lines) and uniform
// Gets over the loaded keys (the enqueue/drain/retire path with responses).
func BenchmarkRingHot(b *testing.B) {
	const (
		slots = 1 << 17
		nkeys = 1 << 16
		batch = 256
	)
	cells := []struct {
		name  string
		op    table.Op
		theta float64
	}{
		{"upsert-zipf99", table.Upsert, 0.99},
		{"get-uniform", table.Get, 0},
	}
	for _, c := range cells {
		b.Run(c.name, func(b *testing.B) {
			tbl := New(Config{Slots: slots, PrefetchWindow: 16})
			h := tbl.NewHandle()
			h.UpsertBatch(workload.UniqueKeys(21, nkeys), 1)
			ks := workload.NewKeyStream(21, nkeys, c.theta)
			stream := make([]uint64, 1<<18) // a multiple of batch
			for i := range stream {
				stream[i] = ks.Next()
			}
			reqs := make([]table.Request, batch)
			resps := make([]table.Response, batch)
			b.ReportAllocs()
			b.ResetTimer()
			for done, pos := 0, 0; done < b.N; done += batch {
				for i := range reqs {
					reqs[i] = table.Request{Op: c.op, Key: stream[pos+i], Value: 1, ID: uint64(i)}
				}
				if pos += batch; pos == len(stream) {
					pos = 0
				}
				n := 0
				for rem := reqs; len(rem) > 0; {
					nreq, nresp := h.Submit(rem, resps[n:])
					rem, n = rem[nreq:], n+nresp
				}
				for {
					nresp, ok := h.Flush(resps[n:])
					if n += nresp; ok {
						break
					}
				}
			}
		})
	}
}

// BenchmarkByteRing is the per-layer number for the byte pipeline past the
// caches: the bucket layout over the arena, 2^20 16-byte keys with 16-80-byte
// values (about 80 MiB of records under a 38 MiB index, well past L2 and this
// VM's share of L3), and the gated benchmark's kv-churn mix — 60% GET, 30%
// overwriting SET, 5% DEL, 5% re-SET of a deleted key — through SubmitBytes
// with a FlushBytes per batch, at a wire batch shorter than half the window
// (8), the kv-churn and srv-pipe batch (32) and one long enough that the
// refill after a flush stops mattering (256). Keys are computed, not looked
// up, and a batch is laid out before it is submitted, so the misses timed are
// the table's; the completion copies the value out, as a protocol encoder
// would. The three cells share one table: loading it is the expensive part.
func BenchmarkByteRing(b *testing.B) {
	const (
		nkeys    = 1 << 20
		keyBytes = 16
		maxBatch = 256
	)
	putKey := func(dst []byte, k uint32) {
		binary.LittleEndian.PutUint64(dst, uint64(k)*0x9e3779b97f4a7c15)
		binary.LittleEndian.PutUint64(dst[8:], uint64(k))
	}
	tbl := New(Config{Slots: 1 << 22, Layout: table.LayoutBucket})
	h := tbl.NewHandle()
	val := make([]byte, 80)
	for i := range val {
		val[i] = byte(i)
	}
	var key [keyBytes]byte
	for k := uint32(0); k < nkeys; k++ {
		putKey(key[:], k)
		h.PutBytes(key[:], val[:16+k%65])
	}
	var reply [80]byte
	h.OnByteComplete(func(c ByteCompletion) { copy(reply[:], c.Value) })
	dead := make([]uint32, 0, nkeys/2) // deleted keys awaiting their re-SET
	isDead := make([]bool, nkeys)
	rng := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 { // xorshift64
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	var (
		kbuf [maxBatch * keyBytes]byte
		ops  [maxBatch]table.Op
		vlen [maxBatch]int
	)
	for _, batch := range []int{8, 32, maxBatch} {
		b.Run(fmt.Sprintf("batch%d", batch), func(b *testing.B) {
			b.ReportAllocs()
			for done := 0; done < b.N; done += batch {
				for i := 0; i < batch; i++ {
					r := next()
					k := uint32(r>>32) % nkeys
					ops[i], vlen[i] = table.Put, 16+int(r>>40)%65
					switch x := r % 100; {
					case x < 60:
						ops[i] = table.Get
					case x < 65 && len(dead) < cap(dead) && !isDead[k]:
						ops[i] = table.Delete
						dead = append(dead, k)
					case x < 70 && len(dead) > 0:
						j := int(r>>8) % len(dead)
						k, dead[j] = dead[j], dead[len(dead)-1]
						dead = dead[:len(dead)-1]
					}
					isDead[k] = ops[i] == table.Delete
					putKey(kbuf[i*keyBytes:], k)
				}
				for i := 0; i < batch; i++ {
					var v []byte
					if ops[i] == table.Put {
						v = val[:vlen[i]]
					}
					h.SubmitBytes(ops[i], uint64(i), kbuf[i*keyBytes:(i+1)*keyBytes], v)
				}
				h.FlushBytes()
			}
		})
	}
}
