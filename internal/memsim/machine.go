// Package memsim is a cycle-level timing model of the memory subsystem of a
// modern two-socket server — caches, MESI-style coherence with directory
// linearization, NUMA, finite memory-channel bandwidth, and software
// prefetch — built to reproduce the DRAMHiT paper's evaluation on hardware
// Go cannot reach (no thread pinning, no cycle counters, and a reproduction
// environment with one or two CPUs where the paper has 64 threads).
//
// The simulator executes real algorithm traces: the hash-table ports in
// internal/simtable run their actual probe sequences against a simulated
// machine, and every memory access is charged latency and bandwidth
// according to where the line is (L1/L2/L3/remote cache/DRAM), whether it
// was prefetched early enough, and how contended it is. Simulated threads
// carry local cycle clocks and are interleaved in timestamp order, so shared
// resources (memory channels, the coherence directory for hot lines) create
// the same queueing behaviour the paper measures.
//
// Parameters come from the paper's §2 and Table 1 and the literature it
// cites (David et al. SOSP'13, Velten et al. ICPE'22, McCalpin's Skylake
// directory analysis): see IntelSkylake and AMDMilan.
package memsim

// Machine describes the simulated server.
type Machine struct {
	// Name identifies the configuration in reports.
	Name string
	// Sockets, CoresPerSocket, ThreadsPerCore give the topology; the
	// maximum simulated thread count is the product.
	Sockets, CoresPerSocket, ThreadsPerCore int
	// FreqGHz converts cycles to seconds.
	FreqGHz float64

	// Private cache capacities in bytes. When both hardware threads of a
	// core are active each simulated thread gets half (the paper's Figure
	// 6c notes 32 KB L1 "shared between two hyperthreads").
	L1Bytes, L2Bytes int
	// L3Bytes is the last-level cache per socket (Intel) or per core
	// complex (AMD, with CCXPerSocket > 1).
	L3Bytes      int
	CCXPerSocket int // 1 = monolithic socket LLC

	// Latencies in cycles (load-to-use).
	L1Lat, L2Lat, L3Lat int
	// LocalCacheLat is a transfer from another core's private cache or a
	// modified LLC line on the same die (paper: 54–132 cycles).
	LocalCacheLat int
	// RemoteCacheLat is a transfer from the other socket's caches
	// (184–320 cycles).
	RemoteCacheLat int
	// DRAMLat / RemoteDRAMLat are loads served from local / remote-socket
	// memory (the paper's Figure 2 observes ~394 cycles from memory under
	// its measurement methodology; raw loaded latency is lower).
	DRAMLat, RemoteDRAMLat int

	// Memory channels.
	ChannelsPerSocket int
	// MTPerSec is the DDR transfer rate in mega-transfers/s (each transfer
	// moves 8 bytes; a 64-byte line takes 8 transfers, so one channel at
	// 2666 MT/s moves 333.25 M lines/s).
	MTPerSec int
	// Efficiency factors (measured bandwidth / theoretical) by access
	// pattern, from Table 1's MLC measurements. Service time per line on a
	// channel is scaled by 1/efficiency.
	SeqReadEff, SeqWriteEff, RandReadEff, RandWriteEff float64

	// DirectoryWriteback models Skylake's memory directory: a read of
	// local memory issued by the OTHER socket acquires the line exclusive
	// and must later write back to clear the directory bit, consuming an
	// extra write transaction (paper §2, McCalpin).
	DirectoryWriteback bool

	// Contention model.
	// LockOverhead is the cost of locking a line already resident in the
	// local L1 (11–30 cycles per David et al.).
	LockOverhead int
	// DirectoryService is the serialization interval of the LLC cache
	// directory for contended exclusive requests: back-to-back exclusive
	// acquisitions of the same line by different cores are spaced by at
	// least this many cycles (ownership handoff ≈ a cache-to-cache
	// transfer).
	DirectoryService int

	// CoherenceProbeRate bounds cross-CCX/cross-die coherence probes per
	// cycle per socket (AMD's probe filter fabric); 0 = unmodeled. Every
	// DRAM access by a thread consumes one probe. This reproduces the AMD
	// >32-thread throughput collapse of Figure 10b.
	CoherenceProbeRate float64

	// OOOHideOnDie is the fraction of ON-DIE load latency (LLC hits and
	// cache-to-cache transfers) hidden by the core's out-of-order window —
	// the paper's §1 observation that CPUs partially hide miss cost
	// through speculative execution across loop iterations.
	OOOHideOnDie float64
	// OOOHideDRAM is the (much smaller) fraction of a DRAM stall the
	// reorder buffer can overlap with adjacent independent operations.
	OOOHideDRAM float64
	// PrefetchServicePenalty scales DRAM channel service time for
	// software-prefetch fills: bursts of independent random prefetches
	// lose row-buffer locality and suffer bank conflicts relative to
	// demand-paced access streams. Calibrated so DRAMHiT's saturated
	// throughput lands near the paper's measurements rather than the
	// idealized channel arithmetic. 0 means 1.0 (no penalty).
	PrefetchServicePenalty float64
	// ProbeSaturationThreads is the busy-thread count beyond which the
	// probe fabric's per-probe interval grows linearly (the coherence
	// bottleneck behind Figure 10b's >32-thread collapse); 0 disables.
	ProbeSaturationThreads int
}

// MaxThreads returns the hardware thread count.
func (m *Machine) MaxThreads() int {
	return m.Sockets * m.CoresPerSocket * m.ThreadsPerCore
}

// LinesPerSecondPerChannel returns the theoretical cache-line rate of one
// channel.
func (m *Machine) LinesPerSecondPerChannel() float64 {
	return float64(m.MTPerSec) * 1e6 * 8 / 64
}

// CyclesPerLine is the theoretical per-channel service time of one line in
// CPU cycles.
func (m *Machine) CyclesPerLine() float64 {
	return m.FreqGHz * 1e9 / m.LinesPerSecondPerChannel()
}

// TheoreticalGBs is the theoretical bandwidth of one socket in GB/s.
func (m *Machine) TheoreticalGBs() float64 {
	return float64(m.ChannelsPerSocket) * m.LinesPerSecondPerChannel() * 64 / 1e9
}

// IntelSkylake describes the paper's c6420 testbed: two Xeon Gold 6142
// 16-core Skylake sockets at 2.6 GHz, six DDR4-2666 channels per socket,
// 22 MB LLC per socket, with the Skylake memory directory enabled.
func IntelSkylake() *Machine {
	return &Machine{
		Name:              "intel-skylake-6142",
		Sockets:           2,
		CoresPerSocket:    16,
		ThreadsPerCore:    2,
		FreqGHz:           2.6,
		L1Bytes:           32 << 10,
		L2Bytes:           1 << 20,
		L3Bytes:           22 << 20,
		CCXPerSocket:      1,
		L1Lat:             4,
		L2Lat:             14,
		L3Lat:             50,
		LocalCacheLat:     90,
		RemoteCacheLat:    250,
		DRAMLat:           300,
		RemoteDRAMLat:     400,
		ChannelsPerSocket: 6,
		MTPerSec:          2666,
		// Table 1: 111.0/127.8, and write efficiencies fitted so the
		// measured 1:1 and 2:1 mixes fall out of the read/write service
		// times (see TestTable1Reproduction).
		SeqReadEff:             0.868,
		SeqWriteEff:            0.656,
		RandReadEff:            0.668,
		RandWriteEff:           0.540,
		DirectoryWriteback:     true,
		LockOverhead:           20,
		DirectoryService:       250,
		OOOHideOnDie:           0.50,
		OOOHideDRAM:            0.15,
		PrefetchServicePenalty: 1.4,
	}
}

// AMDMilan describes the r6525 testbed: two EPYC 7543 32-core Milan sockets
// at 2.8 GHz, eight DDR4-3200 channels per socket, 32 MB L3 per 4-core
// complex (8 CCXs per socket), no Skylake-style directory writeback, and a
// bounded cross-CCX probe rate that saturates past ~32 busy threads
// (Figure 10b's anomaly).
func AMDMilan() *Machine {
	return &Machine{
		Name:              "amd-milan-7543",
		Sockets:           2,
		CoresPerSocket:    32,
		ThreadsPerCore:    2,
		FreqGHz:           2.8,
		L1Bytes:           32 << 10,
		L2Bytes:           512 << 10,
		L3Bytes:           32 << 20,
		CCXPerSocket:      8,
		L1Lat:             4,
		L2Lat:             13,
		L3Lat:             46,
		LocalCacheLat:     110,
		RemoteCacheLat:    280,
		DRAMLat:           330,
		RemoteDRAMLat:     440,
		ChannelsPerSocket: 8,
		MTPerSec:          3200,
		// Paper §4.5: 167 GB/s random reads of 204.8 theoretical; 144 GB/s
		// for 1:1 random read/write.
		SeqReadEff:             0.88,
		SeqWriteEff:            0.70,
		RandReadEff:            0.815,
		RandWriteEff:           0.62,
		DirectoryWriteback:     false,
		LockOverhead:           22,
		DirectoryService:       280,
		CoherenceProbeRate:     0.40,
		ProbeSaturationThreads: 32,
		OOOHideOnDie:           0.50,
		OOOHideDRAM:            0.15,
		PrefetchServicePenalty: 1.4,
	}
}
