package memsim

import (
	"container/heap"
	"fmt"
)

// Sim is one simulated machine execution: a set of threads with private
// cycle clocks sharing caches, memory channels, the coherence directory and
// (on AMD) the probe fabric. Sims are single-goroutine and deterministic.
type Sim struct {
	M       *Machine
	Threads []*Thread

	mem    []*channelGroup // per socket
	l3     []*cache        // per socket (Intel) or per CCX (AMD)
	l3per  int             // threads sharing one l3 slice... derived
	dir    *directory
	probes []*probeFabric // per socket

	// homeMask interleaves line homes across sockets.
	sockets int
}

// Thread is one simulated hardware thread.
type Thread struct {
	sim    *Sim
	ID     int
	Core   int // global core id (threads sharing a core share L1/L2 capacity)
	Socket int
	CCX    int // global CCX id for AMD LLC slicing
	Clock  float64

	l1, l2 *cache

	// prefetch table: line -> ready time. Bounded ring keyed by insertion
	// order so stale prefetches expire.
	pfLine  []uint64
	pfReady []float64
	pfEpoch []uint64
	pfPos   int

	// pollution counts competing cache-line installs since thread start; a
	// prefetched line is considered evicted (cold again) once enough
	// pollution has passed through the L1 between prefetch and use
	// (Figure 6c's experiment).
	pollution uint64

	// ProbeExempt marks a thread whose table accesses touch lines no other
	// core ever caches (a DRAMHiT-P partition owner): the probe filter
	// resolves them without cross-CCX broadcasts, so they bypass the probe
	// fabric. This is the mechanism behind DRAMHiT-P's continued scaling
	// on AMD past the Figure 10b collapse.
	ProbeExempt bool

	// holdCycles extends the next exclusive acquisition (AccessLocked).
	holdCycles float64

	// Stats.
	Ops       uint64
	DRAMLoads uint64
	CacheHits uint64
}

// NewSim builds a simulation with n threads spread round-robin across
// sockets (the paper uniformly distributes execution threads between
// sockets). When n exceeds the physical core count, hyperthread pairs share
// a core and each thread's private cache capacity halves.
func NewSim(m *Machine, n int) *Sim {
	if n < 1 || n > m.MaxThreads() {
		panic(fmt.Sprintf("memsim: thread count %d out of range 1..%d", n, m.MaxThreads()))
	}
	s := &Sim{M: m, sockets: m.Sockets, dir: newDirectory(m.DirectoryService)}
	probeRate := m.CoherenceProbeRate
	if probeRate > 0 && m.ProbeSaturationThreads > 0 && n > m.ProbeSaturationThreads {
		// Past the saturation point the probe filter fabric degrades: the
		// per-probe interval grows with the busy thread count (the paper
		// observes the sharp drop but could not root-cause it; a linear
		// congestion model reproduces the shape).
		probeRate *= float64(m.ProbeSaturationThreads) / float64(n)
	}
	for sk := 0; sk < m.Sockets; sk++ {
		s.mem = append(s.mem, newChannelGroup(m))
		s.probes = append(s.probes, newProbeFabric(probeRate))
	}
	nL3 := m.Sockets * m.CCXPerSocket
	for i := 0; i < nL3; i++ {
		s.l3 = append(s.l3, newCache(m.L3Bytes/64, 16))
	}

	physCores := m.Sockets * m.CoresPerSocket
	ht := n > physCores // hyperthread pairs active: halve private caches
	l1Lines := m.L1Bytes / 64
	l2Lines := m.L2Bytes / 64
	if ht {
		l1Lines /= 2
		l2Lines /= 2
	}
	coresPerCCX := m.CoresPerSocket / m.CCXPerSocket
	for i := 0; i < n; i++ {
		socket := i % m.Sockets
		coreInSocket := (i / m.Sockets) % m.CoresPerSocket
		core := socket*m.CoresPerSocket + coreInSocket
		ccx := socket*m.CCXPerSocket + coreInSocket/coresPerCCX
		t := &Thread{
			sim:    s,
			ID:     i,
			Core:   core,
			Socket: socket,
			CCX:    ccx,
			// Stagger start times so the closed-loop threads do not stay
			// phase-locked, hammering the channels in synchronized bursts
			// no real machine would produce.
			Clock:   float64(i) * 29,
			l1:      newCache(l1Lines, 8),
			l2:      newCache(l2Lines, 8),
			pfLine:  make([]uint64, 64),
			pfReady: make([]float64, 64),
			pfEpoch: make([]uint64, 64),
		}
		s.Threads = append(s.Threads, t)
	}
	return s
}

// homeSocket returns the socket whose memory holds the line (the paper
// splits the table across both NUMA nodes; we interleave by line).
func (s *Sim) homeSocket(line uint64) int {
	return int(line) & (s.sockets - 1)
}

// l3For returns the LLC slice for a thread.
func (s *Sim) l3For(t *Thread) *cache { return s.l3[t.CCX] }

// AccessKind classifies a memory operation for the timing model.
type AccessKind uint8

// Access kinds.
const (
	// Load is an ordinary read.
	Load AccessKind = iota
	// Store is an ordinary write (allocates exclusive; writes back).
	Store
	// RMW is an atomic read-modify-write (CAS, locked add): a Store plus
	// lock overhead, serialized by the directory when contended.
	RMW
)

// Compute advances the thread's clock by a pure-computation interval
// (hashing, queue manipulation).
func (t *Thread) Compute(cycles float64) { t.Clock += cycles }

// Prefetch issues a non-blocking prefetch for the line: the memory
// transaction is scheduled now (consuming bandwidth), and the line becomes
// ready after the full miss latency. A later Access that finds the line
// ready pays only L1 time. Prefetching a line already in the private caches
// costs nothing (the paper's conditional prefetch re-prefetches the same
// cached line for exactly this reason).
func (t *Thread) Prefetch(line uint64) {
	t.Clock += 1 // issue cost
	if t.l1.contains(line) || t.l2.contains(line) {
		return
	}
	if _, ok := t.prefetchReady(line); ok {
		return // already in flight
	}
	ready := t.fill(line, Load, t.Clock, true)
	// Record in the bounded prefetch table; the line is installed in the
	// caches only when the consuming Access lands (so an access that
	// arrives before `ready` still waits out the remainder).
	t.pfLine[t.pfPos] = line + 1
	t.pfReady[t.pfPos] = ready
	t.pfEpoch[t.pfPos] = t.pollution
	t.pfPos = (t.pfPos + 1) & 63
}

// Pollute models the Figure 6c experiment: the application prefetches a
// random cache line of its own large array, consuming memory bandwidth,
// installing the line into the private caches (evicting useful lines), and
// aging every outstanding hash-table prefetch — once pollution exceeds the
// L1 capacity between a prefetch and its use, the prefetched line is gone
// and the consuming access pays a full miss again.
func (t *Thread) Pollute(line uint64) {
	t.Clock += 1
	home := t.sim.homeSocket(line)
	t.sim.mem[home].transact(t.Clock, txRandRead)
	t.install(line, false)
	t.pollution++
}

// PolluteDropped models a prefetch issued past the core's miss-queue depth:
// hardware drops it (no fill, no bandwidth), but the instruction still costs
// an issue slot and the earlier pollution keeps aging the caches. The
// Figure 6c experiment issues up to 512 prefetches per operation — far more
// than the ~16 line-fill buffers a core has — so most are drops.
func (t *Thread) PolluteDropped() {
	t.Clock += 1
	t.pollution++
}

// prefetchReady returns the ready time if the line has an outstanding
// prefetch record that pollution has not evicted.
func (t *Thread) prefetchReady(line uint64) (float64, bool) {
	tag := line + 1
	for i := range t.pfLine {
		if t.pfLine[i] == tag {
			// Pollution evicts a prefetched line once enough competing
			// installs have passed through the L1 — but eviction is
			// set-granular on real hardware: a line survives until ITS set
			// fills, which happens after anywhere from ~½ to ~4× the cache
			// capacity of uniformly random pollution. A per-line
			// deterministic factor spreads the cliff the way set-conflict
			// randomness does.
			factor := 0.5 + 3.5*float64(line*0x9e3779b97f4a7c15>>56&0xff)/255
			limit := uint64(float64(t.l1.capacityLines()) * factor)
			if t.pollution-t.pfEpoch[i] >= limit {
				return 0, false // evicted by pollution before use
			}
			return t.pfReady[i], true
		}
	}
	return 0, false
}

// install puts the line into L1/L2 (and the LLC slice).
func (t *Thread) install(line uint64, write bool) {
	core := int32(t.Core)
	t.l1.access(line, core, write)
	t.l2.access(line, core, write)
	t.sim.l3For(t).access(line, core, write)
}

// fillLatency schedules the off-core portion of a miss starting at `when`
// and returns the absolute cycle at which the line arrives. It charges
// channel bandwidth for DRAM fills, the Skylake directory write-back for
// remote reads, and the AMD probe fabric.
func (t *Thread) fillLatency(line uint64, kind AccessKind, when float64) float64 {
	return t.fill(line, kind, when, false)
}

func (t *Thread) fill(line uint64, kind AccessKind, when float64, prefetch bool) float64 {
	s := t.sim
	m := s.M
	// On-die transfer latencies are partially hidden by the out-of-order
	// window for ordinary loads (never for RMW). A small fraction of DRAM
	// stalls overlaps with adjacent independent work too.
	hide := 1.0
	hideDRAM := 1.0
	if kind == Load && !prefetch {
		hide = 1.0 - m.OOOHideOnDie
		hideDRAM = 1.0 - m.OOOHideDRAM
	}
	scale := 1.0
	if prefetch && m.PrefetchServicePenalty > 0 {
		scale = m.PrefetchServicePenalty
	}

	// Another cache on the same socket?
	own := s.l3For(t)
	localSlices := s.l3[t.Socket*m.CCXPerSocket : (t.Socket+1)*m.CCXPerSocket]
	for _, l3 := range localSlices {
		if i := l3.lookup(line); i >= 0 {
			if l3 == own {
				// Our own LLC slice: clean hit unless another core dirtied
				// the line (then it sits modified in that core's private
				// cache and must be transferred).
				if lw := l3.writer[i]; lw >= 0 && lw != int32(t.Core) {
					return when + float64(m.LocalCacheLat)*hide
				}
				return when + float64(m.L3Lat)*hide
			}
			// A peer complex on the same die: cache-to-cache transfer. A
			// write invalidates the peer's copy.
			if kind != Load {
				l3.invalidate(line)
			}
			return when + float64(m.LocalCacheLat)*hide
		}
	}
	// The other socket's caches?
	for sk := 0; sk < m.Sockets; sk++ {
		if sk == t.Socket {
			continue
		}
		for _, l3 := range s.l3[sk*m.CCXPerSocket : (sk+1)*m.CCXPerSocket] {
			if l3.contains(line) {
				if kind != Load {
					l3.invalidate(line)
				}
				return when + float64(m.RemoteCacheLat)*hide
			}
		}
	}

	// DRAM fill.
	t.DRAMLoads++
	home := s.homeSocket(line)
	start := when
	if m.CoherenceProbeRate > 0 && !t.ProbeExempt {
		start = s.probes[home].admit(start)
	}
	// Write-back bandwidth for dirtied lines is charged at the directory
	// upgrade in Access, so a fill is always one read transaction here.
	start = s.mem[home].transactScaled(start, txRandRead, scale)
	lat := float64(m.DRAMLat) * hideDRAM
	if home != t.Socket {
		lat = float64(m.RemoteDRAMLat) * hideDRAM
		if m.DirectoryWriteback && kind == Load {
			// Skylake: a remote read acquires the line exclusive and will
			// write back to clear the directory bit — an extra write
			// transaction on the home node's channels.
			s.mem[home].transactScaled(start, txRandWrite, scale)
		}
	}
	return start + lat
}

// AccessLocked performs an atomic lock acquisition that keeps the line
// exclusively held for holdCycles after the grant — the critical section of
// a spinlock, plus the coherence interference of the waiters spinning on the
// line. Queued acquirers wait out the hold (Figure 2's spinlock series).
func (t *Thread) AccessLocked(line uint64, holdCycles float64) float64 {
	t.holdCycles = holdCycles + 2*t.sim.dir.service
	cost := t.Access(line, RMW)
	t.holdCycles = 0
	return cost
}

// Access performs a memory operation on the line, advancing the thread's
// clock by its full cost, and returns that cost in cycles.
func (t *Thread) Access(line uint64, kind AccessKind) float64 {
	s := t.sim
	m := s.M
	start := t.Clock
	var done float64

	if hit, lastWriter := t.l1.access(line, int32(t.Core), kind != Load); hit {
		_ = lastWriter
		done = start + float64(m.L1Lat)
	} else if hit, _ := t.l2.access(line, int32(t.Core), kind != Load); hit {
		t.CacheHits++
		done = start + float64(m.L2Lat)
	} else if ready, ok := t.prefetchReady(line); ok {
		// Prefetched: if it landed, the access is an L1 hit; if the
		// prefetch is still in flight, wait out the remainder.
		t.CacheHits++
		wait := ready - start
		if wait < 0 {
			wait = 0
		}
		done = start + wait + float64(m.L1Lat)
		t.install(line, kind != Load)
	} else if kind == Store {
		// A plain store that misses retires into the store buffer: the
		// thread does not wait for the fill. The fill's bandwidth and
		// coherence side effects still happen (fillLatency schedules them),
		// and sustained contention still stalls through the directory
		// grant below.
		t.fillLatency(line, kind, start)
		t.install(line, true)
		done = start + float64(m.L1Lat)
	} else {
		done = t.fillLatency(line, kind, start)
		t.install(line, kind != Load)
	}

	if kind != Load {
		// Exclusive acquisition: serialized by the LLC directory when other
		// cores contend for the same line (ownership handoffs), free for
		// the current holder.
		granted, prev := s.dir.exclusive(line, int32(t.Core), done, t.holdCycles)
		if granted > done {
			if kind == Store {
				// A plain store retires into the store buffer; the thread
				// only stalls once sustained contention fills the buffer,
				// which bounds the per-store penalty. Atomics (RMW) must
				// wait for the grant in full.
				wait := granted - done
				if cap := 12 * float64(m.DirectoryService); wait > cap {
					wait = cap
				}
				done += wait
			} else {
				done = granted
			}
		}
		if kind == RMW {
			done += float64(m.LockOverhead)
		}
		// Dirtying a line this core did not already own will eventually
		// write it back: charge the write transaction to the home node
		// without stalling the thread.
		if prev != int32(t.Core) {
			s.mem[s.homeSocket(line)].transact(done, txRandWrite)
		}
	}

	t.Ops++
	cost := done - start
	t.Clock = done
	return cost
}

// Stream performs a fully pipelined access (the MLC measurement kernel and
// hardware-prefetched sequential scans): the thread pays only issue cost and
// channel backpressure, never the DRAM latency — the hardware prefetcher
// and out-of-order window hide it. seq selects the sequential service rate.
func (t *Thread) Stream(line uint64, write, seq bool) {
	home := t.sim.homeSocket(line)
	kind := txRandRead
	switch {
	case write && seq:
		kind = txSeqWrite
	case write:
		kind = txRandWrite
	case seq:
		kind = txSeqRead
	}
	start := t.sim.mem[home].transact(t.Clock, kind)
	// Thread advances to when its transaction STARTED plus a small issue
	// cost: with deep pipelining a core keeps ~10 line transfers in
	// flight, so backpressure — not latency — paces it.
	t.Clock = start + 2
	t.Ops++
}

// runHeap orders threads by clock.
type runHeap []*Thread

func (h runHeap) Len() int            { return len(h) }
func (h runHeap) Less(i, j int) bool  { return h[i].Clock < h[j].Clock }
func (h runHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *runHeap) Push(x interface{}) { *h = append(*h, x.(*Thread)) }
func (h *runHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// Run drives all threads in timestamp order: step is called with the
// earliest thread and performs one unit of work (one operation), returning
// false when that thread has no more work. Run returns when every thread is
// done.
func (s *Sim) Run(step func(t *Thread) bool) {
	h := make(runHeap, 0, len(s.Threads))
	for _, t := range s.Threads {
		h = append(h, t)
	}
	heap.Init(&h)
	for len(h) > 0 {
		t := h[0]
		if step(t) {
			heap.Fix(&h, 0)
		} else {
			heap.Pop(&h)
		}
	}
}

// WarmLLC installs n lines starting at base into the machine's last-level
// caches, spread across sockets and CCX slices — the state of a
// cache-resident table after its population phase. Used by the small-table
// experiments so the timed phase measures the cached steady state rather
// than compulsory misses.
func (s *Sim) WarmLLC(base, n uint64) {
	m := s.M
	for i := uint64(0); i < n; i++ {
		line := base + i
		socket := int(line>>1) & (m.Sockets - 1)
		slice := socket*m.CCXPerSocket + int(line>>2)%m.CCXPerSocket
		s.l3[slice].access(line, -1, false)
	}
}

// LLCLinesTotal returns the aggregate LLC capacity in lines.
func (s *Sim) LLCLinesTotal() int {
	n := 0
	for _, c := range s.l3 {
		n += c.capacityLines()
	}
	return n
}

// MaxClock returns the finish time (cycles) across threads.
func (s *Sim) MaxClock() float64 {
	max := 0.0
	for _, t := range s.Threads {
		if t.Clock > max {
			max = t.Clock
		}
	}
	return max
}

// Mops converts an operation count and the sim's finish time into millions
// of operations per second.
func (s *Sim) Mops(ops uint64) float64 {
	cycles := s.MaxClock()
	if cycles == 0 {
		return 0
	}
	secs := cycles / (s.M.FreqGHz * 1e9)
	return float64(ops) / secs / 1e6
}

// MemTransactions returns total line transfers across sockets.
func (s *Sim) MemTransactions() uint64 {
	var n uint64
	for _, g := range s.mem {
		n += g.transactions()
	}
	return n
}

// AchievedGBs returns the realized memory bandwidth over the run.
func (s *Sim) AchievedGBs() float64 {
	cycles := s.MaxClock()
	if cycles == 0 {
		return 0
	}
	secs := cycles / (s.M.FreqGHz * 1e9)
	return float64(s.MemTransactions()) * 64 / secs / 1e9
}
