package main

import (
	"fmt"
	"sync"

	"dramhit/internal/dramhit"
	"dramhit/internal/folklore"
	"dramhit/internal/table"
)

// tblSizes fixes one uint64-table workload.
type tblSizes struct {
	slots     uint64
	keys      uint64 // loaded (get) or total (upsert) keys
	workers   int
	batch     int // requests per Submit, then Flush; one latency sample
	streamLen int // per worker, a power of two; the op loop cycles over it
	upsert    bool
	theta     float64 // upsert: zipf skew
	absentPct int     // get: share of guaranteed-absent keys
	reps      int     // set-up repetitions (median reported)
	phase     phase
}

func tblGetDRAM(quick bool) tblSizes {
	if quick {
		return tblSizes{slots: 1 << 16, keys: 3 << 14, workers: 1, batch: 64, streamLen: 1 << 14, absentPct: 10, reps: 1,
			phase: phase{warmOps: 6400, windows: 20, windowOps: 6400}}
	}
	// 2^25 slots are 512 MiB, about twice the shared L3, so at 75% fill every
	// probe of a uniform key is a DRAM miss.
	return tblSizes{slots: 1 << 25, keys: 3 << 23, workers: 1, batch: 64, streamLen: 1 << 24, absentPct: 10, reps: 1,
		phase: phase{warmOps: 1 << 20, windows: 750, windowOps: 52 * 1024}}
}

func tblUpsertHot(quick bool) tblSizes {
	if quick {
		return tblSizes{slots: 1 << 12, keys: 1 << 11, workers: 1, batch: 256, streamLen: 1 << 14, upsert: true, theta: 0.99, reps: 1,
			phase: phase{warmOps: 6400, windows: 20, windowOps: 12800}}
	}
	// 2^17 slots are 2 MiB: the table stays in L2 and nothing misses. A batch
	// of 64 upserts takes 4 us here, and a timer tick or a VM exit lands in 1-3%
	// of samples that short, so their p99 flips between "an interrupt" and
	// "none" from run to run; batches of 256 put it firmly among the
	// interrupted ones (README, "Noise").
	return tblSizes{slots: 1 << 17, keys: 1 << 16, workers: 1, batch: 256, streamLen: 1 << 22, upsert: true, theta: 0.99, reps: 5,
		phase: phase{warmOps: 1 << 21, windows: 750, windowOps: 192 * 1024}}
}

// tblWorker drives one handle with batches of Gets or Upserts.
type tblWorker struct {
	h      *dramhit.Handle
	ks     keyspace
	upsert bool
	stream []uint64 // keys
	absent []uint64 // get: bit p set when stream[p] was never loaded
	pos    int

	reqs  []table.Request // one batch
	resps []table.Response

	attempted, failed int
}

func (w *tblWorker) run(n int, h *hist, tr *tracer) {
	mask := len(w.stream) - 1
	op := table.Get
	if w.upsert {
		op = table.Upsert
	}
	for done := 0; done < n; done += len(w.reqs) {
		var bt spanTok
		if tr != nil {
			bt = tr.begin(spBatch, -1)
		}
		for i := range w.reqs {
			p := (w.pos + i) & mask
			w.reqs[i] = table.Request{Op: op, Key: w.stream[p], Value: 1, ID: uint64(p)}
		}
		w.pos += len(w.reqs)

		t0 := now()
		var st spanTok
		if tr != nil {
			st = tr.begin(spSubmit, bt.id)
		}
		nresp := 0
		for reqs := w.reqs; len(reqs) > 0; {
			nq, nr := w.h.Submit(reqs, w.resps[nresp:])
			reqs = reqs[nq:]
			nresp += nr
		}
		if tr != nil {
			tr.end(st)
			st = tr.begin(spFlush, bt.id)
		}
		for {
			nr, ok := w.h.Flush(w.resps[nresp:])
			nresp += nr
			if ok {
				break
			}
		}
		if tr != nil {
			tr.end(st)
		}
		h.add(uint64(now() - t0))

		w.attempted += len(w.reqs)
		if !w.upsert {
			w.verify(w.resps[:nresp])
		}
		if tr != nil {
			tr.end(bt)
		}
	}
}

// verify checks a batch of Get responses against the oracle: hit or miss by
// the absent bit of the stream position the response names, and the value
// by the key. Every Get must have answered.
func (w *tblWorker) verify(resps []table.Response) {
	w.failed += len(w.reqs) - len(resps)
	for _, r := range resps {
		p := int(r.ID)
		absent := w.absent[p>>6]>>(p&63)&1 == 1
		if r.Found == absent || (r.Found && r.Value != w.ks.value64(w.stream[p])) {
			w.failed++
		}
	}
}

// tblBench is one set-up of a uint64-table workload.
type tblBench struct {
	sz      tblSizes
	ks      keyspace
	tbl     *dramhit.Table
	workers []*tblWorker
}

// nLoaders is how many goroutines a preload is split over (nproc on the
// reference box). The measured phase has its own worker count per workload.
const nLoaders = 2

// tblStreams generates each worker's key stream (and absent bits) from the
// seed. Get streams draw uniformly over loaded keys with absentPct
// never-loaded ones mixed in; upsert streams draw zipf ranks over all keys.
func tblStreams(sz tblSizes, ks keyspace, seed uint64) (streams [][]uint64, absent [][]uint64) {
	streams = make([][]uint64, sz.workers)
	absent = make([][]uint64, sz.workers)
	var z *zipf
	if sz.upsert {
		z = newZipf(sz.keys, sz.theta)
	}
	var wg sync.WaitGroup
	for w := 0; w < sz.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := newRNG(seed, uint64(1+w))
			s := make([]uint64, sz.streamLen)
			a := make([]uint64, (sz.streamLen+63)/64)
			for p := range s {
				switch {
				case sz.upsert:
					s[p] = ks.key(z.rank(r))
				case r.below(100) < uint64(sz.absentPct):
					s[p] = ks.key(sz.keys + r.below(sz.keys))
					a[p>>6] |= 1 << (p & 63)
				default:
					s[p] = ks.key(r.below(sz.keys))
				}
			}
			streams[w], absent[w] = s, a
		}(w)
	}
	wg.Wait()
	return streams, absent
}

// loadKeys puts keys [0, n) with their oracle values, split over nLoaders
// goroutines, through put(loader, keys, vals).
func loadKeys(ks keyspace, n uint64, put func(w int, keys, vals []uint64)) {
	var wg sync.WaitGroup
	for w := 0; w < nLoaders; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			const chunk = 4096
			keys := make([]uint64, chunk)
			vals := make([]uint64, chunk)
			lo, hi := n*uint64(w)/nLoaders, n*uint64(w+1)/nLoaders
			for i := lo; i < hi; {
				m := 0
				for ; m < chunk && i < hi; m, i = m+1, i+1 {
					keys[m] = ks.key(i)
					vals[m] = ks.value64(keys[m])
				}
				put(w, keys[:m], vals[:m])
			}
		}(w)
	}
	wg.Wait()
}

// setupTbl builds the table, the streams and the workers and preloads (get
// only): everything before the warm-up. A rung passes the streams of the
// measured phase; nil generates them.
func setupTbl(sz tblSizes, seed uint64, cfg dramhit.Config, streams, absent [][]uint64) (*tblBench, error) {
	b := &tblBench{sz: sz, ks: newKeyspace(seed)}
	cfg.Slots = sz.slots
	b.tbl = dramhit.New(cfg)
	if streams == nil {
		streams, absent = tblStreams(sz, b.ks, seed)
	}
	for w := 0; w < sz.workers; w++ {
		b.workers = append(b.workers, &tblWorker{
			h: b.tbl.NewHandle(), ks: b.ks, upsert: sz.upsert,
			stream: streams[w], absent: absent[w],
			reqs:  make([]table.Request, sz.batch),
			resps: make([]table.Response, 2*sz.batch),
		})
	}
	if !sz.upsert {
		var loaders [nLoaders]*dramhit.Handle
		for i := range loaders {
			loaders[i] = b.tbl.NewHandle()
		}
		loadKeys(b.ks, sz.keys, func(w int, keys, vals []uint64) { loaders[w].PutBatch(keys, vals) })
		if got := b.tbl.Len(); got != int(sz.keys) {
			return nil, fmt.Errorf("preload: table holds %d keys, want %d", got, sz.keys)
		}
	}
	return b, nil
}

func (b *tblBench) stats() dramhit.Stats {
	var s dramhit.Stats
	for _, w := range b.workers {
		t := w.h.Stats()
		s.Gets += t.Gets
		s.Puts += t.Puts
		s.Upserts += t.Upserts
		s.Deletes += t.Deletes
		s.Failed += t.Failed
		s.Reprobes += t.Reprobes
		s.Lines += t.Lines
		s.KeyLines += t.KeyLines
		s.TagSkips += t.TagSkips
		s.CASAttempts += t.CASAttempts
		s.CombinedUpserts += t.CombinedUpserts
		s.PiggybackedGets += t.PiggybackedGets
		s.ForwardedGets += t.ForwardedGets
	}
	return s
}

// finish runs the end check and returns operations attempted and failed.
// Upserts answer nothing, so their oracle is the final state: the values of
// all keys must add up to the upserts issued.
func (b *tblBench) finish() (attempted, failed int) {
	for _, w := range b.workers {
		attempted += w.attempted
		failed += w.failed
	}
	failed += int(b.stats().Failed)
	if !b.sz.upsert {
		return attempted, failed
	}
	keys := make([]uint64, b.sz.keys)
	for i := range keys {
		keys[i] = b.ks.key(uint64(i))
	}
	vals := make([]uint64, len(keys))
	found := make([]bool, len(keys))
	b.workers[0].h.GetBatch(keys, vals, found)
	var sum uint64
	for i, v := range vals {
		if found[i] {
			sum += v
		}
	}
	if d := int(sum) - attempted; d < 0 {
		failed -= d
	} else {
		failed += d
	}
	return attempted, failed
}

// tblRungs replays the measured streams through the direct (ring-less) mode
// of a second table of the same size and through the folklore baseline, and
// records ns per op. ops is per worker.
func tblRungs(sz tblSizes, seed uint64, streams, absent [][]uint64, ops int, m map[string]float64) error {
	direct, err := setupTbl(sz, seed, dramhit.Config{Governor: table.GovernorDirect}, streams, absent)
	if err != nil {
		return err
	}
	p := phase{warmOps: sz.phase.warmOps, windows: 1, windowOps: ops}
	warmUp(asWorkers(direct.workers), p.warmOps)
	recs := measure(asWorkers(direct.workers), p, selfCPUNS, nil)
	m["dramhit.direct_ns_per_op"] = nsPerOp(recs)
	if _, failed := direct.finish(); failed > 0 {
		return fmt.Errorf("direct rung: %d failed operations", failed)
	}
	direct = nil

	ft := folklore.New(sz.slots)
	if !sz.upsert {
		loadKeys(newKeyspace(seed), sz.keys, func(_ int, keys, vals []uint64) {
			for i, k := range keys {
				ft.Put(k, vals[i])
			}
		})
	}
	var fw []*folkloreWorker
	for _, stream := range streams {
		fw = append(fw, &folkloreWorker{t: ft, batch: sz.batch, upsert: sz.upsert, stream: stream})
	}
	warmUp(asWorkers(fw), p.warmOps)
	recs = measure(asWorkers(fw), p, selfCPUNS, nil)
	if sz.upsert {
		m["folklore.upsert_ns_per_op"] = nsPerOp(recs)
	} else {
		m["folklore.get_ns_per_op"] = nsPerOp(recs)
	}
	for _, w := range fw {
		if w.failed > 0 {
			return fmt.Errorf("folklore rung: %d failed operations", w.failed)
		}
	}
	return nil
}

// nsPerOp is window time per op of one worker: what one op costs one core
// while every worker is busy.
func nsPerOp(recs []windowRec) float64 {
	var ns, ops float64
	for _, w := range recs {
		ns += float64(w.ns)
		ops += float64(w.ops)
	}
	if ops == 0 {
		return 0
	}
	return ns / ops
}

// folkloreWorker runs a stream through the synchronous baseline table.
type folkloreWorker struct {
	t                 *folklore.Table
	batch             int
	upsert            bool
	stream            []uint64
	pos               int
	sink              uint64
	attempted, failed int
}

func (w *folkloreWorker) run(n int, h *hist, _ *tracer) {
	mask := len(w.stream) - 1
	for done := 0; done < n; done += w.batch {
		t0 := now()
		for i := 0; i < w.batch; i++ {
			k := w.stream[(w.pos+i)&mask]
			if w.upsert {
				if _, ok := w.t.Upsert(k, 1); !ok {
					w.failed++
				}
			} else {
				v, _ := w.t.Get(k)
				w.sink += v
			}
		}
		w.pos += w.batch
		w.attempted += w.batch
		h.add(uint64(now() - t0))
	}
}

// runTbl is a whole run of a uint64-table workload.
func runTbl(c config, sz tblSizes) (outcome, error) {
	sz.phase = c.scaled(sz.phase, sz.batch)
	startS := seconds(now())
	var b *tblBench
	setupS, err := repeatSetup(sz.reps, func() { b = nil }, func() (err error) {
		if b, err = setupTbl(sz, c.seed, dramhit.Config{}, nil, nil); err == nil {
			warmUp(asWorkers(b.workers), sz.phase.warmOps)
		}
		return err
	})
	if err != nil {
		return outcome{}, err
	}
	before := b.stats()
	m := runPhase(asWorkers(b.workers), sz.phase, selfCPUNS)
	after := b.stats()
	attempted, failed := b.finish()
	out := outcome{attempted: attempted, failed: failed, recs: m.recs}
	if !c.trace {
		out.metrics = endToEndMetrics(startS+setupS, m, m.peakRSSMiB)
		return out, nil
	}

	lm := map[string]float64{}
	harnessMetrics(m, lm)
	lm["dramhit.submit_ns_per_op"] = perOp(float64(selfNS(m.tracers, spSubmit)), m.recs, traced)
	lm["dramhit.flush_ns_per_op"] = perOp(float64(selfNS(m.tracers, spFlush)), m.recs, traced)
	lm["workload.gen_ns_per_op"] = perOp(float64(selfNS(m.tracers, spBatch)), m.recs, traced)
	for name, d := range map[string]uint64{
		"dramhit.lines_per_op":    after.Lines - before.Lines,
		"dramhit.keylines_per_op": after.KeyLines - before.KeyLines,
		"dramhit.tagskips_per_op": after.TagSkips - before.TagSkips,
		"dramhit.reprobes_per_op": after.Reprobes - before.Reprobes,
		"dramhit.cas_per_op":      after.CASAttempts - before.CASAttempts,
		"dramhit.combined_per_op": after.CombinedUpserts + after.PiggybackedGets + after.ForwardedGets -
			before.CombinedUpserts - before.PiggybackedGets - before.ForwardedGets,
	} {
		lm[name] = perOp(float64(d), m.recs, nil)
	}
	lm["dramhit.failed_ops"] = float64(after.Failed)
	var streams, absent [][]uint64
	for _, w := range b.workers {
		streams, absent = append(streams, w.stream), append(absent, w.absent)
	}
	b = nil // the rungs build tables of the same size
	microRungs(c.seed, lm)
	// One tenth of the measured ops per rung: about a second each.
	if err := tblRungs(sz, c.seed, streams, absent, sz.phase.windowOps*sz.phase.windows/10, lm); err != nil {
		return out, err
	}
	out.metrics = lm
	return out, finishTrace(c, m, lm)
}
