package simtable

import (
	"dramhit/internal/hashfn"
	"dramhit/internal/memsim"
)

// DelegationResult reports the Figure-5 microbenchmark.
type DelegationResult struct {
	CyclesPerMsg float64
	Messages     uint64
}

// RunDelegation reproduces the paper's delegation microbenchmark (§4.1,
// Figure 5): p producers each send msgs 16-byte messages round-robin to c
// consumers over section queues; consumers poll and read. It returns the
// average producer-side cost per message in cycles (the paper measures
// 22–37 cycles, flat from 1×1 to 32×32).
func RunDelegation(m *memsim.Machine, p, c, msgs int) DelegationResult {
	sim := memsim.NewSim(m, p+c)
	mq := newMesh(&lineAlloc{}, p, c)
	remaining := make([]int, p)
	rrP := make([]int, p)
	var prodCycles float64
	for i := range remaining {
		remaining[i] = msgs
	}
	startClocks := make([]float64, p+c)
	for i, t := range sim.Threads {
		startClocks[i] = t.Clock
	}
	sim.Run(func(t *memsim.Thread) bool {
		id := t.ID
		if id < p {
			if remaining[id] == 0 {
				mq.close(t, id)
				prodCycles += t.Clock - startClocks[id]
				return false
			}
			j := rrP[id] % c
			rrP[id]++
			if !mq.q[id][j].send(t, uint64(id)<<32|uint64(remaining[id])) {
				t.Compute(50)
				return true
			}
			remaining[id]--
			return true
		}
		if _, ok := mq.recv(t, id-p); ok {
			t.Compute(2) // read the received value
			return true
		}
		if mq.drained(id - p) {
			return false
		}
		t.Compute(pollEmptyCycles)
		return true
	})
	total := uint64(p * msgs)
	return DelegationResult{
		CyclesPerMsg: prodCycles / float64(total),
		Messages:     total,
	}
}

// RunTrace measures upsert throughput over an explicit key-hash trace (the
// Figure-12 k-mer workload): the trace is split across threads in
// round-robin chunks, preserving each chunk's sequential locality.
func RunTrace(cfg Config, trace []uint64) Result {
	cfgd := cfg.defaults(Inserts)
	la := &lineAlloc{}
	arr := newArray(la, cfgd.Slots)
	sim := memsim.NewSim(cfgd.Machine, cfgd.Threads)

	switch cfgd.Kind {
	case Folklore:
		runTraceSync(sim, arr, cfgd, trace, folkloreUpsert)
	case DRAMHiT:
		runTraceDRAMHiT(sim, arr, cfgd, trace)
	case DRAMHiTP, DRAMHiTPSIMD:
		runTraceDRAMHiTP(sim, arr, la, cfgd, trace, cfgd.Kind == DRAMHiTPSIMD)
	}
	ops := uint64(len(trace))
	return Result{
		Mops:        sim.Mops(ops),
		CyclesPerOp: sim.MaxClock() * float64(cfgd.Threads) / float64(ops),
		GBs:         sim.AchievedGBs(),
		Ops:         ops,
		Fill:        arr.occupancy(),
	}
}

// traceChunks splits a trace into contiguous per-thread chunks.
func traceChunks(trace []uint64, threads int) [][]uint64 {
	chunks := make([][]uint64, threads)
	per := len(trace) / threads
	for i := 0; i < threads; i++ {
		lo := i * per
		hi := lo + per
		if i == threads-1 {
			hi = len(trace)
		}
		chunks[i] = trace[lo:hi]
	}
	return chunks
}

func runTraceSync(sim *memsim.Sim, arr *array, cfg Config, trace []uint64, op func(*memsim.Thread, *array, uint64)) {
	chunks := traceChunks(trace, cfg.Threads)
	pos := make([]int, cfg.Threads)
	sim.Run(func(t *memsim.Thread) bool {
		if pos[t.ID] >= len(chunks[t.ID]) {
			return false
		}
		h := chunks[t.ID][pos[t.ID]]
		pos[t.ID]++
		op(t, arr, h)
		return true
	})
}

func runTraceDRAMHiT(sim *memsim.Sim, arr *array, cfg Config, trace []uint64) {
	chunks := traceChunks(trace, cfg.Threads)
	pos := make([]int, cfg.Threads)
	pipes := make([]*pipeline, cfg.Threads)
	for i := range pipes {
		pipes[i] = newPipeline(arr, cfg.Window, false, false)
		pipes[i].upsert = true // counting semantics: adds are atomic
	}
	sim.Run(func(t *memsim.Thread) bool {
		p := pipes[t.ID]
		if pos[t.ID] >= len(chunks[t.ID]) {
			if p.pending() > 0 {
				p.flush(t)
			}
			return false
		}
		h := chunks[t.ID][pos[t.ID]]
		pos[t.ID]++
		p.submit(t, h, true)
		return true
	})
}

func runTraceDRAMHiTP(sim *memsim.Sim, arr *array, la *lineAlloc, cfg Config, trace []uint64, simd bool) {
	producers, owners := split(cfg.Threads)
	if owners < 1 {
		runTraceDRAMHiT(sim, arr, cfg, trace)
		return
	}
	m := newPartitions(sim, la, arr, cfg.Window, producers, producers, owners, simd)
	chunks := traceChunks(trace, producers)
	pos := make([]int, producers)
	sim.Run(func(t *memsim.Thread) bool {
		id := t.ID
		if id >= producers {
			c := id - producers
			return m.apply(t, c) || m.idle(t, c)
		}
		if pos[id] >= len(chunks[id]) {
			m.close(t, id)
			return false
		}
		if m.send(t, id, chunks[id][pos[id]]) {
			pos[id]++
		}
		return true
	})
}

// RunChainedTrace measures the CHTKC-style chained counter on the simulated
// machine: each upsert loads the bucket head line and then walks chain
// nodes, each hop a dependent unprefetchable miss; inserting pushes a node
// with a CAS on the bucket head. Chain occupancy is tracked per bucket so
// hop counts reflect the actual load factor of the run.
func RunChainedTrace(cfg Config, trace []uint64) Result {
	cfgd := cfg.defaults(Inserts)
	m := cfgd.Machine
	la := &lineAlloc{}
	nb := uint64(1)
	for nb < cfgd.Slots/2 {
		nb <<= 1
	}
	bucketBase := la.alloc(nb/8 + 1) // 8 bucket-head pointers per line
	nodeBase := la.alloc(uint64(len(trace))/2 + 1)

	// chains[b] holds the node line addresses of bucket b's chain, newest
	// first; chainKey mirrors the fingerprints for membership checks.
	chains := make(map[uint64][]uint64, 1<<16)
	keys := make(map[uint64][]uint64, 1<<16)
	var nodesAlloc uint64

	sim := memsim.NewSim(m, cfgd.Threads)
	chunks := traceChunks(trace, cfgd.Threads)
	pos := make([]int, cfgd.Threads)
	sim.Run(func(t *memsim.Thread) bool {
		if pos[t.ID] >= len(chunks[t.ID]) {
			return false
		}
		h := chunks[t.ID][pos[t.ID]]
		pos[t.ID]++
		t.Compute(hashCycles + loopCycles)
		b := hashfn.Fastrange(h, nb)
		t.Access(bucketBase+b/8, memsim.Load)
		// Walk the chain: each node is a dependent load of its own line.
		for i, k := range keys[b] {
			t.Access(chains[b][i], memsim.Load)
			t.Compute(2)
			if k == h {
				// Found: atomic add on the node's counter.
				t.Access(chains[b][i], memsim.RMW)
				return true
			}
		}
		// Not found: allocate a node and CAS it onto the bucket head.
		nodeLine := nodeBase + nodesAlloc/2 // two 32-byte nodes per line
		nodesAlloc++
		t.Access(nodeLine, memsim.Store)
		t.Access(bucketBase+b/8, memsim.RMW)
		chains[b] = append([]uint64{nodeLine}, chains[b]...)
		keys[b] = append([]uint64{h}, keys[b]...)
		return true
	})
	ops := uint64(len(trace))
	return Result{
		Mops:        sim.Mops(ops),
		CyclesPerOp: sim.MaxClock() * float64(cfgd.Threads) / float64(ops),
		GBs:         sim.AchievedGBs(),
		Ops:         ops,
	}
}
