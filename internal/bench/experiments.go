package bench

import (
	"fmt"
	"math/rand"

	"dramhit/internal/hashfn"
	"dramhit/internal/kmer"
	"dramhit/internal/latency"
	"dramhit/internal/memsim"
	"dramhit/internal/simtable"
	"dramhit/internal/workload"
)

// Table sizes (see simtable for the scaling note: the paper's 16 GB large
// table is represented by a 1 GB table, which is equally DRAM-resident
// relative to the LLC; the paper itself uses 1 GB as "large" in Figure 2).
const (
	smallSlots = simtable.DefaultSmall
	largeSlots = simtable.DefaultLarge
)

func threadSweep(m *memsim.Machine, quick bool) []int {
	max := m.MaxThreads()
	full := []int{1, 2, 4, 8, 16, 24, 32, 48, 64, 96, 128}
	q := []int{16, 64, 128}
	pick := full
	if quick {
		pick = q
	}
	var out []int
	for _, n := range pick {
		if n <= max {
			out = append(out, n)
		}
	}
	return out
}

var allKinds = []simtable.Kind{simtable.Folklore, simtable.DRAMHiT, simtable.DRAMHiTP, simtable.DRAMHiTPSIMD}

func init() {
	register("table1", table1)
	register("fig2", fig2)
	register("fig5", fig5)
	register("fig6a", figure6(smallSlots, "fig6a", "Uniform insertions and lookups (small, 16 MB)"))
	register("fig6b", figure6(largeSlots, "fig6b", "Uniform insertions and lookups (large)"))
	register("fig6c", fig6c)
	register("fig7", fig7)
	register("fig8a", figure8(smallSlots, "fig8a", "Zipfian insertions and finds (small)"))
	register("fig8b", figure8(largeSlots, "fig8b", "Zipfian insertions and finds (large)"))
	register("fig8c", fig8c)
	register("fig9", fig9)
	register("fig10a", figureAMD(smallSlots, "fig10a", "Uniform distribution (AMD, small)", 0))
	register("fig10b", figureAMD(largeSlots, "fig10b", "Uniform distribution (AMD, large)", 0))
	register("fig10c", figureAMD(smallSlots, "fig10c", "Zipfian distribution (AMD, small)", 1.09))
	register("fig11", fig11)
	register("fig12a", figure12(kmer.DMelanogaster(0), "fig12a", "K-mer insertion throughput (D. melanogaster profile)"))
	register("fig12b", figure12(kmer.FVesca(0), "fig12b", "K-mer insertion throughput (F. vesca profile)"))
	register("ablation-window", ablationWindow)
	register("ablation-ratio", ablationRatio)
	register("ablation-section", ablationSection)
}

// table1 reproduces Table 1: bandwidth and cycle budget per cache-line
// transaction from 32 logical cores of one socket.
func table1(cfg Config) *Artifact {
	m := memsim.IntelSkylake()
	m.Sockets = 1
	ops := cfg.ops(200_000)

	run := func(write2 int, seq bool) (gbs, budget float64) {
		// write2: writes per 2 reads... encoded as reads-per-write below.
		mm := memsim.IntelSkylake()
		mm.Sockets = 1
		s := memsim.NewSim(mm, 32)
		counts := make([]int, 32)
		per := ops / 32
		s.Run(func(t *memsim.Thread) bool {
			if counts[t.ID] >= per {
				return false
			}
			counts[t.ID]++
			var line uint64
			if seq {
				line = uint64(t.ID)<<32 + uint64(counts[t.ID])
			} else {
				line = uint64(t.ID)<<32 + uint64(counts[t.ID])*2654435761
			}
			write := false
			switch write2 {
			case 1: // 1:1
				write = counts[t.ID]%2 == 0
			case 2: // 2 reads : 1 write
				write = counts[t.ID]%3 == 0
			}
			t.Stream(line, write, seq)
			return true
		})
		gbs = s.AchievedGBs()
		cycles := s.MaxClock() * 32 / float64(s.MemTransactions())
		return gbs, cycles
	}

	a := &Artifact{
		ID:     "table1",
		Title:  "Theoretical and measured bandwidth and cycle budget (one socket, 32 logical cores)",
		Header: []string{"Configuration", "Bandwidth (GB/s)", "Cycle budget"},
	}
	theoGBs := m.TheoreticalGBs()
	theoBudget := 32 * m.FreqGHz * 1e9 / (theoGBs * 1e9 / 64)
	a.Rows = append(a.Rows, []string{"Theoretical", fmt.Sprintf("%.1f", theoGBs), fmt.Sprintf("%.1f", theoBudget)})
	for _, c := range []struct {
		name   string
		writes int
		seq    bool
	}{
		{"Seq reads", 0, true},
		{"Seq reads-writes (1:1)", 1, true},
		{"Seq reads-writes (2:1)", 2, true},
		{"Random reads", 0, false},
		{"Random reads-writes (1:1)", 1, false},
		{"Random reads-writes (2:1)", 2, false},
	} {
		gbs, budget := run(c.writes, c.seq)
		a.Rows = append(a.Rows, []string{c.name, fmt.Sprintf("%.1f", gbs), fmt.Sprintf("%.1f", budget)})
	}
	a.Notes = append(a.Notes,
		"paper (measured with Intel MLC): 127.8 theoretical, 111.0 seq reads, 95.4 / 97.5 seq r/w, 85.4 random reads, 76.3 / 81.3 random r/w")
	return a
}

// fig2 reproduces Figure 2: synchronization overheads of a spinlock vs an
// atomic increment on 32 MB and 1 GB datasets as skew grows.
func fig2(cfg Config) *Artifact {
	m := memsim.IntelSkylake()
	threads := 64
	ops := cfg.ops(120_000)
	skews := []float64{0.2, 0.4, 0.6, 0.8, 0.9, 1.0, 1.1, 1.2}
	if cfg.Quick {
		skews = []float64{0.2, 0.8, 1.1}
	}
	datasets := []struct {
		name  string
		lines uint64
	}{
		{"32mb", 32 << 20 / 64},
		{"1gb", 1 << 30 / 64},
	}

	a := &Artifact{ID: "fig2", Title: "Synchronization overheads (spinlock vs atomic increment)",
		XLabel: "skew", YLabel: "cycles per operation (log in the paper)"}
	for _, ds := range datasets {
		for _, mode := range []string{"spinlock", "atomic-inc"} {
			series := Series{Name: mode + " " + ds.name}
			for _, skew := range skews {
				s := memsim.NewSim(m, threads)
				streams := make([]*workload.Zipf, threads)
				counts := make([]int, threads)
				for i := range streams {
					streams[i] = workload.NewZipf(rand.New(rand.NewSource(cfg.Seed^int64(i))), ds.lines, skew)
				}
				per := ops / threads
				s.Run(func(t *memsim.Thread) bool {
					if counts[t.ID] >= per {
						return false
					}
					counts[t.ID]++
					line := streams[t.ID].Next()
					if mode == "atomic-inc" {
						t.Access(line, memsim.RMW)
						return true
					}
					// Spinlock: the acquisition holds the line exclusively
					// for the critical section, and spinning waiters keep
					// interfering with the handoff; release is a store on
					// the already-owned line.
					t.AccessLocked(line, 10)
					t.Compute(10) // critical section body
					t.Access(line, memsim.Store)
					return true
				})
				cyclesPerOp := s.MaxClock() * float64(threads) / float64(ops)
				series.X = append(series.X, skew)
				series.Y = append(series.Y, cyclesPerOp)
			}
			a.Series = append(a.Series, series)
		}
	}
	a.Notes = append(a.Notes,
		"paper: flat low-hundreds of cycles at low skew; at skew 1.1 the 32 MB dataset reaches ~16K cycles (atomic) and ~66K (spinlock)")
	return a
}

// fig5 reproduces Figure 5: delegation latency across mesh sizes.
func fig5(cfg Config) *Artifact {
	m := memsim.IntelSkylake()
	msgs := cfg.ops(64_000)
	sizes := []int{1, 2, 4, 6, 8, 10, 12, 14, 16, 20, 24, 28, 32}
	if cfg.Quick {
		sizes = []int{1, 8, 32}
	}
	a := &Artifact{ID: "fig5", Title: "Latency of delegation",
		XLabel: "producers=consumers", YLabel: "cycles per message"}
	s := Series{Name: "cycles/msg"}
	for _, n := range sizes {
		r := simtable.RunDelegation(m, n, n, msgs/n)
		s.X = append(s.X, float64(n))
		s.Y = append(s.Y, r.CyclesPerMsg)
	}
	a.Series = append(a.Series, s)
	a.Notes = append(a.Notes, "paper: 22-37 cycles per message, roughly constant from 1 to 32 producers/consumers")
	return a
}

// figure6 builds fig6a/fig6b: throughput vs threads, uniform keys.
func figure6(slots uint64, id, title string) Runner {
	return func(cfg Config) *Artifact {
		m := memsim.IntelSkylake()
		a := &Artifact{ID: id, Title: title, XLabel: "threads", YLabel: "Mops"}
		for _, mix := range []simtable.OpMix{simtable.Inserts, simtable.Finds} {
			for _, kind := range allKinds {
				s := Series{Name: mixName(mix) + " " + kind.String()}
				for _, n := range threadSweep(m, cfg.Quick) {
					r := simtable.Run(simtable.Config{
						Machine: m, Kind: kind, Threads: n, Slots: slots,
						MeasureOps: cfg.ops(240_000), Seed: cfg.Seed,
					}, mix)
					s.X = append(s.X, float64(n))
					s.Y = append(s.Y, r.Mops)
				}
				a.Series = append(a.Series, s)
			}
		}
		if id == "fig6b" {
			a.Notes = append(a.Notes,
				"paper @64 threads: inserts folklore 417 / dramhit 792 / dramhit-p 671; finds folklore 451 / dramhit 973 / dramhit-p 951 / simd 1008")
		} else {
			a.Notes = append(a.Notes,
				"paper @64 threads: inserts folklore 441 / dramhit 1180 / dramhit-p 975; finds folklore 1616 / dramhit 1513 / dramhit-p 1224")
		}
		return a
	}
}

// fig6c reproduces the cache-pollution experiment.
func fig6c(cfg Config) *Artifact {
	m := memsim.IntelSkylake()
	a := &Artifact{ID: "fig6c", Title: "Impact of cache pollution (uniform, large)",
		XLabel: "pollutions per op", YLabel: "Mops"}
	pollutions := []int{0, 32, 64, 128, 256, 384, 512}
	if cfg.Quick {
		pollutions = []int{0, 128, 512}
	}
	kinds := []simtable.Kind{simtable.Folklore, simtable.DRAMHiT, simtable.DRAMHiTP}
	for _, mix := range []simtable.OpMix{simtable.Inserts, simtable.Finds} {
		for _, kind := range kinds {
			s := Series{Name: mixName(mix) + " " + kind.String()}
			for _, p := range pollutions {
				r := simtable.Run(simtable.Config{
					Machine: m, Kind: kind, Threads: 64, Slots: largeSlots,
					MeasureOps: cfg.ops(120_000), Seed: cfg.Seed, Pollutions: p,
				}, mix)
				s.X = append(s.X, float64(p))
				s.Y = append(s.Y, r.Mops)
			}
			a.Series = append(a.Series, s)
		}
	}
	a.Notes = append(a.Notes,
		"paper: DRAMHiT and DRAMHiT-P degrade gracefully and blend with Folklore once two hyperthreads pollute the entire L1 (256 lines each)")
	return a
}

// fig7 reproduces the batch-size ablation.
func fig7(cfg Config) *Artifact {
	m := memsim.IntelSkylake()
	a := &Artifact{ID: "fig7", Title: "Impact of batch size (uniform, large)",
		XLabel: "batch length", YLabel: "Mops"}
	for _, mix := range []simtable.OpMix{simtable.Inserts, simtable.Finds} {
		for _, kind := range []simtable.Kind{simtable.DRAMHiT, simtable.DRAMHiTP} {
			s := Series{Name: mixName(mix) + " " + kind.String()}
			for _, b := range []int{1, 2, 4, 8, 16} {
				r := simtable.Run(simtable.Config{
					Machine: m, Kind: kind, Threads: 64, Slots: largeSlots,
					Batch: b, MeasureOps: cfg.ops(160_000), Seed: cfg.Seed,
				}, mix)
				s.X = append(s.X, float64(b))
				s.Y = append(s.Y, r.Mops)
			}
			a.Series = append(a.Series, s)
		}
	}
	a.Notes = append(a.Notes, "paper: throughput nearly constant across batch sizes (<10 cycles/op difference)")
	return a
}

// figure8 builds fig8a/fig8b: throughput vs skew at 64 threads.
func figure8(slots uint64, id, title string) Runner {
	return func(cfg Config) *Artifact {
		m := memsim.IntelSkylake()
		a := &Artifact{ID: id, Title: title, XLabel: "skew", YLabel: "Mops"}
		skews := []float64{0.2, 0.4, 0.6, 0.8, 0.9, 1.0, 1.09}
		if cfg.Quick {
			skews = []float64{0.2, 0.9, 1.09}
		}
		for _, mix := range []simtable.OpMix{simtable.Inserts, simtable.Finds} {
			for _, kind := range allKinds {
				s := Series{Name: mixName(mix) + " " + kind.String()}
				for _, skew := range skews {
					r := simtable.Run(simtable.Config{
						Machine: m, Kind: kind, Threads: 64, Slots: slots,
						Theta: skew, MeasureOps: cfg.ops(160_000), Seed: cfg.Seed,
					}, mix)
					s.X = append(s.X, skew)
					s.Y = append(s.Y, r.Mops)
				}
				a.Series = append(a.Series, s)
			}
		}
		if id == "fig8b" {
			a.Notes = append(a.Notes,
				"paper @skew 1.09 (large): inserts folklore/dramhit 132-143, dramhit-p 245; finds folklore 1499, dramhit 2820, dramhit-p 2133")
		} else {
			a.Notes = append(a.Notes,
				"paper @skew 1.09 (small): inserts dramhit-p 351; finds folklore 4059, dramhit 2919, dramhit-p 2919")
		}
		return a
	}
}

// fig8c reproduces the mixed read/write sweep.
func fig8c(cfg Config) *Artifact {
	m := memsim.IntelSkylake()
	a := &Artifact{ID: "fig8c", Title: "Mixed find/insertion tests (large)",
		XLabel: "read probability", YLabel: "Mops"}
	probs := []float64{0, 0.2, 0.4, 0.6, 0.8, 1.0}
	if cfg.Quick {
		probs = []float64{0, 0.5, 1.0}
	}
	for _, theta := range []float64{0, 1.09} {
		for _, kind := range []simtable.Kind{simtable.Folklore, simtable.DRAMHiT, simtable.DRAMHiTP} {
			s := Series{Name: fmt.Sprintf("skew%.2f %s", theta, kind)}
			for _, p := range probs {
				r := simtable.Run(simtable.Config{
					Machine: m, Kind: kind, Threads: 64, Slots: largeSlots,
					Theta: theta, ReadProb: p, MeasureOps: cfg.ops(160_000), Seed: cfg.Seed,
				}, simtable.Mixed)
				s.X = append(s.X, p)
				s.Y = append(s.Y, r.Mops)
			}
			a.Series = append(a.Series, s)
		}
	}
	a.Notes = append(a.Notes, "paper: throughput of every table rises with the read fraction")
	return a
}

// fig9 reproduces the latency CDF.
func fig9(cfg Config) *Artifact {
	m := memsim.IntelSkylake()
	a := &Artifact{ID: "fig9", Title: "Cumulative latency distribution (uniform, large, 64 threads)",
		XLabel: "latency (cycles)", YLabel: "cumulative proportion"}
	for _, mix := range []simtable.OpMix{simtable.Inserts, simtable.Finds} {
		for _, kind := range []simtable.Kind{simtable.Folklore, simtable.DRAMHiT, simtable.DRAMHiTP} {
			if kind == simtable.DRAMHiTP && mix == simtable.Finds {
				continue // the paper plots -P inserts only (reads are direct)
			}
			rec := latency.NewRecorder(1 << 18)
			simtable.Run(simtable.Config{
				Machine: m, Kind: kind, Threads: 64, Slots: largeSlots,
				MeasureOps: cfg.ops(120_000), Seed: cfg.Seed,
				LatencySink: func(submit, complete float64) { rec.Add(complete - submit) },
			}, mix)
			cdf := rec.CDF()
			s := Series{Name: kind.String() + " " + mixName(mix)}
			for _, pt := range cdf.Series(24) {
				s.X = append(s.X, pt[0])
				s.Y = append(s.Y, pt[1])
			}
			a.Series = append(a.Series, s)
			a.Notes = append(a.Notes, fmt.Sprintf("%s %s: %s", kind, mixName(mix), cdf.String()))
		}
	}
	a.Notes = append(a.Notes,
		"paper: 90%% of dramhit-p inserts within 52 cycles (fire-and-forget); dramhit within 9090; folklore within 594")
	return a
}

// figureAMD builds fig10a/b/c: thread sweeps on the AMD machine.
func figureAMD(slots uint64, id, title string, theta float64) Runner {
	return func(cfg Config) *Artifact {
		m := memsim.AMDMilan()
		a := &Artifact{ID: id, Title: title, XLabel: "threads", YLabel: "Mops"}
		kinds := []simtable.Kind{simtable.Folklore, simtable.DRAMHiT, simtable.DRAMHiTP}
		for _, mix := range []simtable.OpMix{simtable.Inserts, simtable.Finds} {
			for _, kind := range kinds {
				s := Series{Name: mixName(mix) + " " + kind.String()}
				for _, n := range threadSweep(m, cfg.Quick) {
					r := simtable.Run(simtable.Config{
						Machine: m, Kind: kind, Threads: n, Slots: slots,
						Theta: theta, MeasureOps: cfg.ops(200_000), Seed: cfg.Seed,
					}, mix)
					s.X = append(s.X, float64(n))
					s.Y = append(s.Y, r.Mops)
				}
				a.Series = append(a.Series, s)
			}
		}
		if id == "fig10b" {
			a.Notes = append(a.Notes,
				"paper: dramhit peaks near 32 threads (finds ~1192 / inserts ~1052) then drops sharply — a coherence-subsystem bottleneck; dramhit-p does not collapse")
		}
		return a
	}
}

// fig11 reproduces the AMD zipfian sweep (large).
func fig11(cfg Config) *Artifact {
	m := memsim.AMDMilan()
	a := &Artifact{ID: "fig11", Title: "Lookups and insertions on zipfian distribution (AMD, large)",
		XLabel: "skew", YLabel: "Mops"}
	skews := []float64{0.2, 0.4, 0.6, 0.8, 0.9, 1.0, 1.09}
	if cfg.Quick {
		skews = []float64{0.2, 0.9, 1.09}
	}
	for _, mix := range []simtable.OpMix{simtable.Inserts, simtable.Finds} {
		for _, kind := range []simtable.Kind{simtable.Folklore, simtable.DRAMHiT, simtable.DRAMHiTP} {
			s := Series{Name: mixName(mix) + " " + kind.String()}
			for _, skew := range skews {
				r := simtable.Run(simtable.Config{
					Machine: m, Kind: kind, Threads: 128, Slots: largeSlots,
					Theta: skew, MeasureOps: cfg.ops(160_000), Seed: cfg.Seed,
				}, mix)
				s.X = append(s.X, skew)
				s.Y = append(s.Y, r.Mops)
			}
			a.Series = append(a.Series, s)
		}
	}
	return a
}

// figure12 builds fig12a/fig12b: k-mer counting throughput vs K.
func figure12(profile kmer.GenomeProfile, id, title string) Runner {
	return func(cfg Config) *Artifact {
		m := memsim.IntelSkylake()
		bases := 600_000
		if cfg.Quick {
			bases = 100_000
		}
		profile.Bases = bases
		records := profile.Generate()
		a := &Artifact{ID: id, Title: title, XLabel: "K", YLabel: "Mops"}
		ks := []int{4, 8, 12, 16, 20, 24, 28, 32}
		if cfg.Quick {
			ks = []int{4, 32}
		}
		type runner struct {
			name string
			run  func(c simtable.Config, trace []uint64) simtable.Result
		}
		runners := []runner{
			{"chtkc (chained)", simtable.RunChainedTrace},
			{"folklore", simtable.RunTrace},
			{"dramhit", simtable.RunTrace},
			{"dramhit-p", simtable.RunTrace},
		}
		kindOf := map[string]simtable.Kind{
			"chtkc (chained)": simtable.Folklore, // kind unused by chained
			"folklore":        simtable.Folklore,
			"dramhit":         simtable.DRAMHiT,
			"dramhit-p":       simtable.DRAMHiTP,
		}
		series := make([]Series, len(runners))
		for i, r := range runners {
			series[i] = Series{Name: r.name}
		}
		for _, k := range ks {
			var trace []uint64
			for _, rec := range records {
				it := kmer.NewIterator(rec, k)
				for {
					km, ok := it.Next()
					if !ok {
						break
					}
					trace = append(trace, hashfn.City64(km))
				}
			}
			for i, r := range runners {
				res := r.run(simtable.Config{
					Machine: m, Kind: kindOf[r.name], Threads: 64,
					Slots: 1 << 22, Seed: cfg.Seed,
				}, trace)
				series[i].X = append(series[i].X, float64(k))
				series[i].Y = append(series[i].Y, res.Mops)
			}
		}
		a.Series = append(a.Series, series...)
		a.Notes = append(a.Notes,
			"paper: dramhit-p considerably outperforms all others on both datasets (zipfian k-mer distribution); chtkc is the slowest at large K",
			fmt.Sprintf("synthetic genome: %s, %d bases (the paper's 7.8/4.8 Gbase datasets scaled; the skew profile, top-25 k-mers covering 50-86%%, is preserved)", profile.Name, bases))
		return a
	}
}

// ablationWindow sweeps the prefetch window (the design's central knob; the
// paper fixes it and reports batching in fig7 instead).
func ablationWindow(cfg Config) *Artifact {
	m := memsim.IntelSkylake()
	a := &Artifact{ID: "ablation-window", Title: "Ablation: prefetch window depth (uniform, large, 64 threads)",
		XLabel: "window", YLabel: "Mops"}
	for _, mix := range []simtable.OpMix{simtable.Inserts, simtable.Finds} {
		s := Series{Name: mixName(mix) + " dramhit"}
		for _, w := range []int{1, 2, 4, 8, 16, 32} {
			r := simtable.Run(simtable.Config{
				Machine: m, Kind: simtable.DRAMHiT, Threads: 64, Slots: largeSlots,
				Window: w, MeasureOps: cfg.ops(160_000), Seed: cfg.Seed,
			}, mix)
			s.X = append(s.X, float64(w))
			s.Y = append(s.Y, r.Mops)
		}
		a.Series = append(a.Series, s)
	}
	a.Notes = append(a.Notes, "window 1 disables pipelining and collapses to Folklore-like throughput; gains saturate once the window covers the DRAM latency")
	return a
}

// ablationRatio runs DRAMHiT-P inserts on 16 to 64 threads at the runner's
// fixed 1:3 producer:consumer split. It shows how that split scales with the
// thread budget; it does not vary the split, which the runner takes from
// the thread count alone.
func ablationRatio(cfg Config) *Artifact {
	m := memsim.IntelSkylake()
	a := &Artifact{ID: "ablation-ratio", Title: "Ablation: DRAMHiT-P threads at a fixed 1:3 producer:consumer split (uniform inserts, large)",
		XLabel: "producers (threads = 4 x producers)", YLabel: "Mops"}
	s := Series{Name: "inserts dramhit-p"}
	for _, producers := range []int{4, 8, 12, 16} {
		r := simtable.Run(simtable.Config{
			Machine: m, Kind: simtable.DRAMHiTP, Threads: producers * 4,
			Slots: largeSlots, MeasureOps: cfg.ops(160_000), Seed: cfg.Seed,
		}, simtable.Inserts)
		s.X = append(s.X, float64(producers))
		s.Y = append(s.Y, r.Mops)
	}
	a.Series = append(a.Series, s)
	a.Notes = append(a.Notes, "the split is fixed at 1:3 and the thread count varies; the paper's claim that 1-to-3 yields the highest write throughput needs a sweep of the producer share at a fixed thread count, which the runner does not take as an input")
	return a
}

// ablationSection sweeps the delegation mesh shape at a fixed thread budget,
// showing the sensitivity the section-queue design removes.
func ablationSection(cfg Config) *Artifact {
	m := memsim.IntelSkylake()
	a := &Artifact{ID: "ablation-section", Title: "Ablation: delegation mesh shape at 32 threads",
		XLabel: "producers (consumers = 32 - producers)", YLabel: "cycles per message"}
	s := Series{Name: "cycles/msg"}
	for _, p := range []int{4, 8, 16, 24, 28} {
		r := simtable.RunDelegation(m, p, 32-p, cfg.ops(64_000)/p)
		s.X = append(s.X, float64(p))
		s.Y = append(s.Y, r.CyclesPerMsg)
	}
	a.Series = append(a.Series, s)
	return a
}

func mixName(m simtable.OpMix) string {
	switch m {
	case simtable.Inserts:
		return "inserts"
	case simtable.Finds:
		return "finds"
	case simtable.Mixed:
		return "mixed"
	}
	return "?"
}
