package dramhit

import (
	"math/rand"
	"sync"
	"testing"

	"dramhit/internal/table"
	"dramhit/internal/workload"
)

// kernelPair drives two tables — one per probe kernel — through the same
// request stream with the same flush boundaries and asserts byte-identical
// behaviour: every response (order included, since both pipelines are
// deterministic for a single handle) and the core Stats counters. KeyLines
// and CASAttempts are excluded via Stats.Core — they intentionally differ
// between the kernels.
type kernelPair struct {
	t              *testing.T
	scalar, swar   *Handle
	rScal, rSwar   []table.Response
	nScal, nSwar   int
	scalarT, swarT *Table
}

// respCap must cover the responses that can pile up between compare()
// calls — Submit spins if the response buffer fills before a flush.
func newKernelPair(t *testing.T, slots uint64, window, respCap int) *kernelPair {
	ts := New(Config{Slots: slots, PrefetchWindow: window, ProbeKernel: table.KernelScalar})
	tw := New(Config{Slots: slots, PrefetchWindow: window, ProbeKernel: table.KernelSWAR})
	return &kernelPair{
		t:       t,
		scalarT: ts,
		swarT:   tw,
		scalar:  ts.NewHandle(),
		swar:    tw.NewHandle(),
		rScal:   make([]table.Response, respCap),
		rSwar:   make([]table.Response, respCap),
	}
}

func (kp *kernelPair) compare(what string) {
	kp.t.Helper()
	if kp.nScal != kp.nSwar {
		kp.t.Fatalf("%s: scalar wrote %d responses, swar %d", what, kp.nScal, kp.nSwar)
	}
	for i := 0; i < kp.nScal; i++ {
		if kp.rScal[i] != kp.rSwar[i] {
			kp.t.Fatalf("%s: response %d diverged: scalar %+v swar %+v", what, i, kp.rScal[i], kp.rSwar[i])
		}
	}
	kp.nScal, kp.nSwar = 0, 0
	ss, sw := kp.scalar.Stats().Core(), kp.swar.Stats().Core()
	if ss != sw {
		kp.t.Fatalf("%s: stats diverged:\nscalar %+v\nswar   %+v", what, ss, sw)
	}
}

func (kp *kernelPair) submit(reqs []table.Request) {
	kp.t.Helper()
	remS, remW := reqs, reqs
	for len(remS) > 0 || len(remW) > 0 {
		if len(remS) > 0 {
			n, nr := kp.scalar.Submit(remS, kp.rScal[kp.nScal:])
			remS = remS[n:]
			kp.nScal += nr
		}
		if len(remW) > 0 {
			n, nr := kp.swar.Submit(remW, kp.rSwar[kp.nSwar:])
			remW = remW[n:]
			kp.nSwar += nr
		}
	}
}

func (kp *kernelPair) flush() {
	kp.t.Helper()
	for {
		n, done := kp.scalar.Flush(kp.rScal[kp.nScal:])
		kp.nScal += n
		if done {
			break
		}
	}
	for {
		n, done := kp.swar.Flush(kp.rSwar[kp.nSwar:])
		kp.nSwar += n
		if done {
			break
		}
	}
}

// TestKernelEquivalenceProperty is the SWAR-vs-scalar property test: over
// randomized mixed workloads — all four ops, reserved keys, hot key ranges
// forcing collisions, tombstone churn, wrap-around on tables whose size is
// not a multiple of the line width, single-line tables, and table-full
// failures — the two kernels must produce identical responses and identical
// Stats (including Reprobes and Lines, the line-crossing counters).
func TestKernelEquivalenceProperty(t *testing.T) {
	sizes := []uint64{3, 4, 5, 16, 37, 251, 1024}
	windows := []int{1, 4, 16}
	for _, size := range sizes {
		for _, window := range windows {
			rng := rand.New(rand.NewSource(int64(size)*31 + int64(window)))
			// Key range ~2x the table size: dense collisions, frequent
			// misses, and (for tiny tables) guaranteed table-full Puts.
			keyRange := int(size) * 2
			var batch []table.Request
			var nextID uint64
			ops := 4000
			if size >= 1024 {
				ops = 20000
			}
			kp := newKernelPair(t, size, window, ops+64)
			for i := 0; i < ops; i++ {
				var k uint64
				switch rng.Intn(20) {
				case 0:
					k = table.EmptyKey // side-slot path
				case 1:
					k = table.TombstoneKey // side-slot path
				default:
					k = uint64(rng.Intn(keyRange)) + 1
				}
				op := table.Op(rng.Intn(4))
				id := nextID
				nextID++
				batch = append(batch, table.Request{Op: op, Key: k, Value: uint64(rng.Intn(1 << 16)), ID: id})
				if len(batch) >= 1+rng.Intn(32) {
					kp.submit(batch)
					batch = batch[:0]
					if rng.Intn(4) == 0 {
						kp.flush()
						kp.compare("mid-run")
					}
				}
			}
			kp.submit(batch)
			kp.flush()
			kp.compare("final")
			if kp.scalarT.Len() != kp.swarT.Len() {
				t.Fatalf("size %d window %d: Len diverged: scalar %d swar %d",
					size, window, kp.scalarT.Len(), kp.swarT.Len())
			}
			if kp.scalarT.Fill() != kp.swarT.Fill() {
				t.Fatalf("size %d window %d: Fill diverged: scalar %v swar %v",
					size, window, kp.scalarT.Fill(), kp.swarT.Fill())
			}
		}
	}
}

// TestKernelEquivalenceTableScan cross-checks the final slot arrays: after
// an identical deterministic workload the two kernels must have claimed the
// same slots with the same keys (both probe in the same order, so placement
// — not just content — must agree).
func TestKernelEquivalenceTableScan(t *testing.T) {
	kp := newKernelPair(t, 512, 8, 30064)
	rng := rand.New(rand.NewSource(99))
	var batch []table.Request
	for i := 0; i < 30000; i++ {
		k := uint64(rng.Intn(700)) + 1
		batch = append(batch, table.Request{Op: table.Op(rng.Intn(4)), Key: k, Value: 7, ID: uint64(i)})
		if len(batch) == 24 {
			kp.submit(batch)
			batch = batch[:0]
		}
	}
	kp.submit(batch)
	kp.flush()
	kp.compare("scan")
	for i := uint64(0); i < 512; i++ {
		if ks, kw := kp.scalarT.regs[0].arr.Key(i), kp.swarT.regs[0].arr.Key(i); ks != kw {
			t.Fatalf("slot %d: scalar key %#x, swar key %#x", i, ks, kw)
		}
	}
}

// TestKernelClaimRaces hammers the SWAR claim-CAS re-snapshot path: many
// handles race Puts and Upserts over a small hot key set. Run under -race
// this exercises the snapshot/CAS/re-snapshot protocol; the assertions check
// that no key was ever claimed twice and upsert counts aggregated exactly.
func TestKernelClaimRaces(t *testing.T) {
	tbl := New(Config{Slots: 4096, ProbeKernel: table.KernelSWAR})
	keys := workload.UniqueKeys(8, 64)
	const goroutines = 8
	const rounds = 150
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			h := tbl.NewHandle()
			for r := 0; r < rounds; r++ {
				h.UpsertBatch(keys, 1)
			}
		}(g)
	}
	wg.Wait()

	s := tbl.NewSync()
	for _, k := range keys {
		if v, ok := s.Get(k); !ok || v != goroutines*rounds {
			t.Fatalf("key %d: count (%d, %v), want %d", k, v, ok, goroutines*rounds)
		}
	}
	// No key may occupy two slots: a lost claim race that failed to
	// re-verify would leave a duplicate.
	seen := make(map[uint64]uint64)
	for i := uint64(0); i < uint64(tbl.Cap()); i++ {
		k := tbl.regs[0].arr.Key(i)
		if k == table.EmptyKey || k == table.TombstoneKey {
			continue
		}
		if prev, dup := seen[k]; dup {
			t.Fatalf("key %d claimed in slots %d and %d", k, prev, i)
		}
		seen[k] = i
	}
	if len(seen) != len(keys) {
		t.Fatalf("table holds %d live keys, want %d", len(seen), len(keys))
	}
}

// TestKernelMixedOpRaces races all four ops across kernels and handles on
// one SWAR table; invariants (no duplicate claims, live count equals a
// final scan) must hold whatever interleaving the scheduler picks.
func TestKernelMixedOpRaces(t *testing.T) {
	tbl := New(Config{Slots: 1 << 12, ProbeKernel: table.KernelSWAR})
	keys := workload.UniqueKeys(9, 256)
	const goroutines = 6
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			h := tbl.NewHandle()
			rng := rand.New(rand.NewSource(int64(g)))
			reqs := make([]table.Request, 16)
			resps := make([]table.Response, 64)
			for r := 0; r < 500; r++ {
				for j := range reqs {
					reqs[j] = table.Request{
						Op:    table.Op(rng.Intn(4)),
						Key:   keys[rng.Intn(len(keys))],
						Value: 1,
						ID:    uint64(j),
					}
				}
				rem := reqs[:]
				for len(rem) > 0 {
					n, _ := h.Submit(rem, resps)
					rem = rem[n:]
				}
			}
			for {
				if _, done := h.Flush(resps); done {
					break
				}
			}
		}(g)
	}
	wg.Wait()

	live := 0
	seen := make(map[uint64]bool)
	for i := uint64(0); i < uint64(tbl.Cap()); i++ {
		k := tbl.regs[0].arr.Key(i)
		if k == table.EmptyKey || k == table.TombstoneKey {
			continue
		}
		if seen[k] {
			t.Fatalf("key %d claimed twice", k)
		}
		seen[k] = true
		live++
	}
	if got := int(tbl.live.Load()); got != live {
		t.Fatalf("live counter %d, scan found %d", got, live)
	}
}

// TestScalarKernelStillSelectable pins the ablation contract: explicitly
// configured scalar tables run the scalar path and still pass a basic
// workload (the conformance suite runs both kernels; this guards the Config
// wiring itself).
func TestScalarKernelStillSelectable(t *testing.T) {
	tbl := New(Config{Slots: 1024, ProbeKernel: table.KernelScalar})
	if tbl.Kernel() != table.KernelScalar {
		t.Fatalf("Kernel() = %v, want scalar", tbl.Kernel())
	}
	if def := New(Config{Slots: 16}); def.Kernel() != table.KernelSWAR {
		t.Fatalf("default Kernel() = %v, want swar", def.Kernel())
	}
	h := tbl.NewHandle()
	keys := workload.UniqueKeys(10, 700)
	vals := make([]uint64, len(keys))
	for i := range vals {
		vals[i] = keys[i] * 3
	}
	h.PutBatch(keys, vals)
	got := make([]uint64, len(keys))
	found := make([]bool, len(keys))
	h.GetBatch(keys, got, found)
	for i := range keys {
		if !found[i] || got[i] != vals[i] {
			t.Fatalf("scalar kernel: key %d got (%d,%v)", keys[i], got[i], found[i])
		}
	}
}
