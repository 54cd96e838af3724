package main

import (
	"bytes"
	"fmt"
	"sync"

	"dramhit/internal/arena"
	"dramhit/internal/dramhit"
	"dramhit/internal/slotarr"
	"dramhit/internal/table"
)

// kvSizes fixes a byte-key workload: the key population, the value sizes
// and the op mix. The same description drives kv-churn in process and the
// two server workloads over the wire.
type kvSizes struct {
	slots          uint64
	workers        int
	keys           uint32 // loaded keys, split into one disjoint range per worker
	minVal, maxVal int
	batch          int // ops per Flush (in process) or per wire round trip
	// Shares in percent of all ops; the rest are overwrite SETs. absentPct is
	// the share of GETs aimed at keys that were never loaded. Every DEL is
	// matched by a later re-SET of a deleted key, at the same rate.
	getPct, absentPct, delPct int
	reps                      int
	phase                     phase
}

func kvChurn(quick bool) kvSizes {
	if quick {
		return kvSizes{slots: 1 << 14, workers: 1, keys: 1 << 12, minVal: 16, maxVal: 80, batch: 32,
			getPct: 60, absentPct: 5, delPct: 5, reps: 1,
			phase: phase{warmOps: 3200, windows: 20, windowOps: 3200}}
	}
	// 2^23 keys are about 0.9 GiB of live records under a 150 MiB index, so
	// every probe and every record read is a DRAM miss from the first window
	// on; a keyset the size of the shared L3 runs at whatever share of that
	// cache the neighbours leave (README, "Noise"). Tombstoned lanes are
	// never reused, so every re-SET of a deleted key claims a new lane: 2^24
	// slots hold the keys plus the run's ~1M re-SETs far below the 95% load
	// that would trigger a grow.
	return kvSizes{slots: 1 << 24, workers: 1, keys: 1 << 23, minVal: 16, maxVal: 80, batch: 32,
		getPct: 60, absentPct: 5, delPct: 5, reps: 1,
		phase: phase{warmOps: 150 * 1024, windows: 750, windowOps: 26 * 1024}}
}

// Stream entries pack an op and a key index.
const (
	kvGet uint32 = iota
	kvSet
	kvDel
	kvOpShift = 30
	kvIdxMask = 1<<kvOpShift - 1
)

// The shadow holds, per key, the version last written and whether the key
// is currently deleted. Workers own disjoint key ranges and each pipeline
// completes in submission order, so the shadow predicts every reply exactly.
const shadowDead = 1 << 31

func shadowLive(v uint32) bool { return v != 0 && v&shadowDead == 0 }

// partition is worker w's range of the loaded keys.
func (sz kvSizes) partition(w int) (base, count uint32) {
	n, of := uint64(sz.keys), uint64(sz.workers)
	base = uint32(n * uint64(w) / of)
	return base, uint32(n*uint64(w+1)/of) - base
}

// kvStream generates worker w's whole op stream (it is never cycled, so
// the generator can track which keys are deleted and aim every DEL at a
// live key and every re-SET at a deleted one). Absent GETs use indexes
// from keys upward, which no one ever stores.
func kvStream(sz kvSizes, seed uint64, w, ops int) []uint32 {
	r := newRNG(seed, uint64(16+w))
	base, n := sz.partition(w)
	dead := make([]bool, n)
	var pool []uint32 // deleted keys, relative to base
	live := func() uint32 {
		for {
			if i := uint32(r.below(uint64(n))); !dead[i] {
				return i
			}
		}
	}
	s := make([]uint32, ops)
	for p := range s {
		x := int(r.below(100))
		switch {
		case x < sz.getPct:
			if int(r.below(100)) < sz.absentPct {
				s[p] = kvGet<<kvOpShift | (sz.keys + base + uint32(r.below(uint64(n))))
			} else {
				s[p] = kvGet<<kvOpShift | (base + uint32(r.below(uint64(n))))
			}
		case x < sz.getPct+sz.delPct && len(pool) < int(n)/2:
			i := live()
			dead[i] = true
			pool = append(pool, i)
			s[p] = kvDel<<kvOpShift | (base + i)
		case x < sz.getPct+2*sz.delPct && len(pool) > 0:
			j := r.below(uint64(len(pool)))
			i := pool[j]
			pool[j] = pool[len(pool)-1]
			pool = pool[:len(pool)-1]
			dead[i] = false
			s[p] = kvSet<<kvOpShift | (base + i)
		default:
			s[p] = kvSet<<kvOpShift | (base + live())
		}
	}
	return s
}

// kvExpect is what the oracle predicts for one submitted request.
type kvExpect struct {
	op       uint32
	idx, ver uint32
	found    bool
}

// kvOracle is one worker's shadow plus the op cursor over its stream; the
// in-process worker and the wire clients share it.
type kvOracle struct {
	ks       keyspace
	sz       kvSizes
	base     uint32
	shadow   []uint32
	stream   []uint32
	pos      int
	sampled  int // GETs seen, for the 1-in-16 full compare
	scratch  []byte
	attempts int
	failed   int
}

func newKVOracle(sz kvSizes, ks keyspace, w int, stream []uint32) *kvOracle {
	base, n := sz.partition(w)
	o := &kvOracle{ks: ks, sz: sz, base: base, shadow: make([]uint32, n), stream: stream}
	for i := range o.shadow {
		o.shadow[i] = 1 // the preload stores version 1 of every key
	}
	return o
}

// next advances the stream by one op: it returns what to send (the value
// version to write is e.ver) and the reply to expect, and updates the shadow
// as if the op had executed.
func (o *kvOracle) next() kvExpect {
	ent := o.stream[o.pos]
	o.pos++
	e := kvExpect{op: ent >> kvOpShift, idx: ent & kvIdxMask}
	if e.idx >= o.sz.keys {
		return e // never-loaded key: a GET that must miss
	}
	s := &o.shadow[e.idx-o.base]
	e.found = shadowLive(*s)
	switch e.op {
	case kvGet:
		e.ver = *s
	case kvSet:
		*s = (*s&^shadowDead + 1)
		e.ver = *s
	case kvDel:
		*s |= shadowDead
	}
	return e
}

func (o *kvOracle) valueLen(e kvExpect) int {
	return valueLen(e.idx, e.ver, o.sz.minVal, o.sz.maxVal)
}

// checkGet verifies a GET reply: presence, then the header (right key,
// right version, right length) on every hit and every byte on one hit in
// sixteen.
func (o *kvOracle) checkGet(e kvExpect, value []byte, found bool) {
	if found != e.found {
		o.failed++
		return
	}
	if !found {
		return
	}
	idx, ver, ok := headerOf(value)
	if !ok || idx != e.idx || ver != e.ver || len(value) != o.valueLen(e) {
		o.failed++
		return
	}
	if o.sampled++; o.sampled&15 == 0 {
		o.scratch = o.ks.appendValue(o.scratch[:0], e.idx, e.ver, len(value))
		if !bytes.Equal(o.scratch, value) {
			o.failed++
		}
	}
}

// kvWorker drives one handle's byte pipeline.
type kvWorker struct {
	*kvOracle
	h    *dramhit.Handle
	kbuf []byte
	vbuf []byte
	exp  []kvExpect
	done []dramhit.ByteCompletion
}

var kvOps = [...]table.Op{kvGet: table.Get, kvSet: table.Put, kvDel: table.Delete}

func (w *kvWorker) run(n int, h *hist, tr *tracer) {
	batch := w.sz.batch
	for done := 0; done < n; done += batch {
		var bt, st spanTok
		if tr != nil {
			bt = tr.begin(spBatch, -1)
		}
		w.kbuf, w.vbuf, w.exp, w.done = w.kbuf[:0], w.vbuf[:0], w.exp[:0], w.done[:0]
		for i := 0; i < batch; i++ {
			e := w.next()
			w.exp = append(w.exp, e)
			w.kbuf = w.ks.appendKey(w.kbuf, e.idx)
			if e.op == kvSet {
				w.vbuf = w.ks.appendValue(w.vbuf, e.idx, e.ver, w.valueLen(e))
			}
		}

		t0 := now()
		if tr != nil {
			st = tr.begin(spSubmit, bt.id)
		}
		voff := 0
		for i, e := range w.exp {
			var val []byte
			if e.op == kvSet {
				n := w.valueLen(e)
				val = w.vbuf[voff : voff+n]
				voff += n
			}
			w.h.SubmitBytes(kvOps[e.op], uint64(i), w.kbuf[i*keyBytes:(i+1)*keyBytes], val)
		}
		if tr != nil {
			tr.end(st)
			st = tr.begin(spFlush, bt.id)
		}
		w.h.FlushBytes()
		if tr != nil {
			tr.end(st)
		}
		h.add(uint64(now() - t0))

		// Completions were only recorded inside the pipeline; they are
		// judged here, outside the timed calls. A Get's value aliases its
		// arena record, which stays intact after a later overwrite.
		w.attempts += batch
		w.failed += batch - len(w.done)
		for _, cc := range w.done {
			e := w.exp[cc.ID]
			if e.op == kvGet {
				w.checkGet(e, cc.Value, cc.Found)
			} else if cc.Found != e.found {
				w.failed++
			}
		}
		if tr != nil {
			tr.end(bt)
		}
	}
}

// kvBench is one set-up of kv-churn.
type kvBench struct {
	sz      kvSizes
	ks      keyspace
	tbl     *dramhit.Table
	workers []*kvWorker
	grows   uint64 // after preload
}

// preloadKV stores version 1 of every key of each worker's range through
// put(worker, key, value).
func preloadKV(sz kvSizes, ks keyspace, put func(w int, key, value []byte)) {
	var wg sync.WaitGroup
	for w := 0; w < sz.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base, n := sz.partition(w)
			var k, v []byte
			for i := base; i < base+n; i++ {
				k = ks.appendKey(k[:0], i)
				v = ks.appendValue(v[:0], i, 1, valueLen(i, 1, sz.minVal, sz.maxVal))
				put(w, k, v)
			}
		}(w)
	}
	wg.Wait()
}

func kvStreams(sz kvSizes, seed uint64, ops int) [][]uint32 {
	streams := make([][]uint32, sz.workers)
	var wg sync.WaitGroup
	for w := range streams {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			streams[w] = kvStream(sz, seed, w, ops)
		}(w)
	}
	wg.Wait()
	return streams
}

func setupKV(sz kvSizes, seed uint64) (*kvBench, error) {
	b := &kvBench{sz: sz, ks: newKeyspace(seed)}
	b.tbl = dramhit.New(dramhit.Config{Slots: sz.slots, Layout: table.LayoutBucket})
	streams := kvStreams(sz, seed, sz.phase.warmOps+sz.phase.windows*sz.phase.windowOps)
	for w := 0; w < sz.workers; w++ {
		kw := &kvWorker{
			kvOracle: newKVOracle(sz, b.ks, w, streams[w]),
			h:        b.tbl.NewHandle(),
			kbuf:     make([]byte, 0, sz.batch*keyBytes),
			vbuf:     make([]byte, 0, sz.batch*sz.maxVal),
			exp:      make([]kvExpect, 0, sz.batch),
			done:     make([]dramhit.ByteCompletion, 0, sz.batch),
		}
		kw.h.OnByteComplete(func(cc dramhit.ByteCompletion) { kw.done = append(kw.done, cc) })
		b.workers = append(b.workers, kw)
	}
	preloadKV(sz, b.ks, func(w int, k, v []byte) { b.workers[w].h.PutBytes(k, v) })
	if got := b.tbl.Len(); got != int(sz.keys) {
		return nil, fmt.Errorf("preload: table holds %d keys, want %d", got, sz.keys)
	}
	b.grows = b.tbl.Bucket().Grows()
	return b, nil
}

// arenaMetrics reads the arena's public counters. appended0 is the byte
// count before the measured ops; ops is how many there were.
func arenaMetrics(a *arena.Arena, appended0 uint64, ops int, m map[string]float64) {
	used, dead := arenaBytes(a)
	total, live := a.Segments()
	m["arena.append_bytes_per_op"] = float64(used-appended0) / float64(ops)
	m["arena.segments_total"] = float64(total)
	m["arena.segments_live"] = float64(live)
	m["arena.freed_bytes"] = float64(a.Freed())
	if used > dead {
		m["arena.bytes_per_live_byte"] = float64(used) / float64(used-dead)
	}
}

func arenaBytes(a *arena.Arena) (used, dead uint64) {
	for _, s := range a.SegmentStats() {
		used += s.Used
		dead += s.Dead
	}
	return used, dead
}

func runKV(c config) (outcome, error) {
	sz := kvChurn(c.quick)
	sz.phase = c.scaled(sz.phase, sz.batch)
	startS := seconds(now())
	var b *kvBench
	setupS, err := repeatSetup(sz.reps, func() { b = nil }, func() (err error) {
		if b, err = setupKV(sz, c.seed); err == nil {
			warmUp(asWorkers(b.workers), sz.phase.warmOps)
		}
		return err
	})
	if err != nil {
		return outcome{}, err
	}
	ar := b.tbl.Bucket().Arena()
	appended0, _ := arenaBytes(ar)
	m := runPhase(asWorkers(b.workers), sz.phase, selfCPUNS)

	out := outcome{recs: m.recs}
	for _, w := range b.workers {
		out.attempted += w.attempts
		out.failed += w.failed
	}
	// A grow would stop the writers mid-run and reset the churn the run is
	// there to accumulate; the sizes leave room for every re-SET's new lane.
	if g := b.tbl.Bucket().Grows(); g != b.grows {
		out.failed++
		fmt.Printf("kv-churn: table grew %d times during the run\n", g-b.grows)
	}
	if !c.trace {
		out.metrics = endToEndMetrics(startS+setupS, m, m.peakRSSMiB)
		return out, nil
	}

	lm := map[string]float64{}
	harnessMetrics(m, lm)
	lm["dramhit.bytes_submit_ns_per_op"] = perOp(float64(selfNS(m.tracers, spSubmit)), m.recs, traced)
	lm["dramhit.bytes_flush_ns_per_op"] = perOp(float64(selfNS(m.tracers, spFlush)), m.recs, traced)
	lm["workload.gen_ns_per_op"] = perOp(float64(selfNS(m.tracers, spBatch)), m.recs, traced)
	lm["slotarr.bucket_grows"] = float64(b.tbl.Bucket().Grows())
	lm["slotarr.bucket_stashed"] = float64(b.tbl.Bucket().Stashed())
	arenaMetrics(ar, appended0, summarize(m.recs, nil).ops, lm)
	microRungs(c.seed, lm)
	kvRungs(b, lm)
	out.metrics = lm
	return out, finishTrace(c, m, lm)
}

// kvOp is one prepared operation of a rung replay.
type kvOp struct {
	op       uint32
	key, val []byte
}

// replayKV runs the first ops entries of every worker's stream through
// exec, concurrently as in the measured phase. Keys and values of a chunk
// are generated before the clock starts, so only the calls into the layer
// are timed. exec returns how many of the chunk's ops it executed; the
// result is worker ns per executed op.
func replayKV(b *kvBench, ops int, mk func(w int) func([]kvOp) int) float64 {
	const chunk = 1024
	var mu sync.Mutex
	var wg sync.WaitGroup
	var totalNS, totalOps int64
	for w := range b.workers {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			exec := mk(w)
			o := newKVOracle(b.sz, b.ks, w, b.workers[w].stream)
			prepared := make([]kvOp, 0, chunk)
			kbuf := make([]byte, 0, chunk*keyBytes)
			vbuf := make([]byte, 0, chunk*b.sz.maxVal)
			var ns, n int64
			for done := 0; done < ops; done += chunk {
				prepared, kbuf, vbuf = prepared[:0], kbuf[:0], vbuf[:0]
				for i := 0; i < chunk && done+i < ops; i++ {
					e := o.next()
					k0, v0 := len(kbuf), len(vbuf)
					kbuf = b.ks.appendKey(kbuf, e.idx)
					if e.op == kvSet {
						vbuf = b.ks.appendValue(vbuf, e.idx, e.ver, o.valueLen(e))
					}
					prepared = append(prepared, kvOp{e.op, kbuf[k0:], vbuf[v0:]})
				}
				t0 := now()
				n += int64(exec(prepared))
				ns += now() - t0
			}
			mu.Lock()
			totalNS += ns
			totalOps += n
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	if totalOps == 0 {
		return 0
	}
	return float64(totalNS) / float64(totalOps)
}

// kvRungs replays a tenth of the measured stream through the layers under
// the byte pipeline: the bucket table's own handle (rung 1), the
// synchronous byte API of the dramhit handle, and a bare arena writer.
func kvRungs(b *kvBench, m map[string]float64) {
	ops := b.sz.phase.windows * b.sz.phase.windowOps / 10

	bt := slotarr.NewBucketTableSlots(b.sz.slots)
	handles := make([]*slotarr.BucketHandle, b.sz.workers)
	for w := range handles {
		handles[w] = bt.NewHandle()
	}
	preloadKV(b.sz, b.ks, func(w int, k, v []byte) { handles[w].Put(k, v) })
	m["slotarr.bucket_get_ns"] = replayKV(b, ops, func(w int) func([]kvOp) int {
		h := handles[w]
		return func(ops []kvOp) (n int) {
			for _, o := range ops {
				if o.op == kvGet {
					v, _ := h.Get(o.key)
					sink += uint64(len(v))
					n++
				}
			}
			return n
		}
	})
	m["slotarr.bucket_put_ns"] = replayKV(b, ops, func(w int) func([]kvOp) int {
		h := handles[w]
		return func(ops []kvOp) (n int) {
			for _, o := range ops {
				if o.op == kvSet {
					h.Put(o.key, o.val)
					n++
				}
			}
			return n
		}
	})

	st := dramhit.New(dramhit.Config{Slots: b.sz.slots, Layout: table.LayoutBucket})
	syncH := make([]*dramhit.Handle, b.sz.workers)
	for w := range syncH {
		syncH[w] = st.NewHandle()
	}
	preloadKV(b.sz, b.ks, func(w int, k, v []byte) { syncH[w].PutBytes(k, v) })
	m["dramhit.bytes_sync_ns_per_op"] = replayKV(b, ops, func(w int) func([]kvOp) int {
		h := syncH[w]
		return func(ops []kvOp) int {
			for _, o := range ops {
				switch o.op {
				case kvGet:
					v, _ := h.GetBytes(o.key)
					sink += uint64(len(v))
				case kvSet:
					h.PutBytes(o.key, o.val)
				default:
					h.DeleteBytes(o.key)
				}
			}
			return len(ops)
		}
	})

	ar := arena.New()
	m["arena.append_ns"] = replayKV(b, ops, func(int) func([]kvOp) int {
		w := ar.NewWriter()
		return func(ops []kvOp) (n int) {
			for _, o := range ops {
				if o.op == kvSet {
					sink += uint64(w.Append(o.key, o.val))
					n++
				}
			}
			return n
		}
	})
}
