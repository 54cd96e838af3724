package bench

import (
	"fmt"
	"time"

	"dramhit/internal/dramhit"
	"dramhit/internal/kmer"
	"dramhit/internal/table"
	"dramhit/internal/workload"
)

// This file holds the real-execution experiments: they run the actual Go
// tables on the host (no simulation). Their absolute numbers depend on the
// machine, but the structural claims they check — cache-line accesses per
// operation, probe-length growth with fill, batching effects on the real
// pipeline — are host-independent.

func init() {
	register("reprobe-stats", reprobeStats)
	register("real-kmer", realKmer)
	register("combine-ab", combineAB)
}

// reprobeStats regenerates the paper's §3 empirical claim: "on a fill
// factor of 75-80%, lookup and insertion operations require only 1.3 cache
// line accesses per request on average (reprobes ... access additional
// cache-lines only 30% of the time)". It measures the real table's
// lines-per-op counter across fill factors.
func reprobeStats(cfg Config) *Artifact {
	a := &Artifact{
		ID:     "reprobe-stats",
		Title:  "Cache-line accesses per operation vs fill factor (real execution)",
		XLabel: "fill factor", YLabel: "cache lines per op",
	}
	size := uint64(1 << 20)
	if cfg.Quick {
		size = 1 << 17
	}
	fills := []float64{0.25, 0.50, 0.625, 0.75, 0.80, 0.875}

	insS := Series{Name: "inserts dramhit"}
	findS := Series{Name: "finds dramhit"}
	if cfg.Layout == table.LayoutBucket {
		insS.Name += " (bucket layout)"
		findS.Name += " (bucket layout)"
	}
	for _, fill := range fills {
		tbl := dramhit.New(dramhit.Config{Slots: size, Layout: cfg.Layout})
		h, h2 := tbl.NewHandle(), tbl.NewHandle()
		n := int(float64(size) * fill)
		keys := workload.UniqueKeys(cfg.Seed, n)
		if cfg.Layout == table.LayoutBucket {
			// A bucket table serves the byte API: the same keys, 8-byte encoded.
			bkeys := leKeys(keys)
			for _, k := range bkeys {
				h.PutBytes(k, zeroValue)
			}
			for _, k := range bkeys {
				h2.GetBytes(k)
			}
		} else {
			vals := make([]uint64, n)
			h.PutBatch(keys, vals)
			h2.GetBatch(keys, vals, make([]bool, n))
		}
		st := h.Stats()
		insS.X = append(insS.X, fill)
		insS.Y = append(insS.Y, float64(st.Lines)/float64(st.Ops()))

		st2 := h2.Stats()
		findS.X = append(findS.X, fill)
		findS.Y = append(findS.Y, float64(st2.Lines)/float64(st2.Ops()))
	}
	a.Series = append(a.Series, insS, findS)
	// Record the 75% anchor explicitly.
	for i, f := range findS.X {
		if f == 0.75 {
			a.Notes = append(a.Notes, fmt.Sprintf(
				"at 75%% fill: %.2f lines/op finds, %.2f inserts (paper: ~1.3; reprobes cross lines ~30%% of the time)",
				findS.Y[i], insS.Y[i]))
		}
	}
	return a
}

// realKmer runs the actual Go counters on a synthetic genome on this host:
// the cross-design ratios (and exact count agreement) are the signal; see
// fig12a/fig12b for the simulated reproduction of the paper's figure.
func realKmer(cfg Config) *Artifact {
	a := &Artifact{
		ID:     "real-kmer",
		Title:  "K-mer counting on the real tables (this host)",
		XLabel: "K", YLabel: "Mops (host-dependent)",
	}
	bases := 2_000_000
	if cfg.Quick {
		bases = 300_000
	}
	records := kmer.DMelanogaster(bases).Generate()
	ks := []int{8, 16, 32}
	if cfg.Quick {
		ks = []int{16}
	}
	dh := Series{Name: "dramhit (batched upserts)"}
	for _, k := range ks {
		tbl := dramhit.New(dramhit.Config{Slots: 1 << 22})
		c := kmer.NewDRAMHiTCounter(tbl.NewHandle(), 16)
		start := time.Now()
		total := 0
		for _, rec := range records {
			total += kmer.CountSequence(c, rec, k)
		}
		c.Flush()
		mops := float64(total) / time.Since(start).Seconds() / 1e6
		dh.X = append(dh.X, float64(k))
		dh.Y = append(dh.Y, mops)
	}
	a.Series = append(a.Series, dh)
	a.Notes = append(a.Notes, "absolute Mops reflect this host and the Go runtime; the paper's Figure 12 shape is reproduced by fig12a/fig12b")
	return a
}

// combineAB runs the in-window request-combining A/B on the real table: an
// upsert-dominated stream whose zipf skew is swept from uniform to hot
// (theta 0 → 0.99), each point run with combining on and off. The
// architecture-independent signal is memory operations per op — key-line
// loads plus CAS/value-write attempts — which combining must cut as skew
// grows (a folded upsert touches no memory at all); Mops are the
// host-dependent consequence.
func combineAB(cfg Config) *Artifact {
	a := &Artifact{
		ID:     "combine-ab",
		Title:  "In-window request combining A/B (real execution)",
		Header: []string{"theta", "combining", "Mops", "keylines/op", "cas/op", "memops/op", "combined/op"},
	}
	size := uint64(1 << 20)
	ops := 1 << 20
	if cfg.Quick {
		size = 1 << 17
		ops = 1 << 15
	}
	for _, theta := range []float64{0, 0.6, 0.9, 0.99} {
		for _, mode := range []table.Combining{table.CombineOff, table.CombineOn} {
			a.Rows = append(a.Rows, combineABRow(cfg, size, ops, theta, mode))
		}
	}
	a.Notes = append(a.Notes,
		fmt.Sprintf("method: %d-slot tables, prefetch window 64, %d zipf-skewed upserts (Value 1) over a keyspace of half the slots, batch 16", size, ops),
		"memops/op = keylines/op + cas/op: DRAM-touching work per submitted request (a folded upsert contributes zero of either)",
		"combined/op is the fraction of upserts folded onto an in-flight duplicate; it tracks the in-window collision probability, rising with theta",
		"with combining on, memops/op must fall monotonically as theta grows; at theta=0 a 64-deep window over half a million keys almost never collides, so both sides must match",
		"each cell is best-of-3 (counters are deterministic; only the wall clock varies)",
		"Mops are host-dependent; the counter columns are the architecture-independent signal — on hosts whose LLC holds the hot set the saved memory ops buy little wall clock, while the cycle-level DRAM-bound model (internal/simtable, TestCombiningWinsOnSkew) shows the same fold rate as a 1.4-1.5x throughput win at theta=0.99")
	return a
}

// combineABRow runs one (theta, combining) cell best-of-3 (the counters are
// deterministic across repetitions; only the wall clock varies, and the best
// repetition is the least scheduler-disturbed one): build, stream, report.
func combineABRow(cfg Config, size uint64, ops int, theta float64, mode table.Combining) []string {
	reps := 3
	if cfg.Quick {
		reps = 1
	}
	var best []string
	bestMops := -1.0
	for rep := 0; rep < reps; rep++ {
		row, mops := combineABRep(cfg, size, ops, theta, mode)
		if mops > bestMops {
			best, bestMops = row, mops
		}
	}
	return best
}

// combineABRep is one repetition of a combine-ab cell.
func combineABRep(cfg Config, size uint64, ops int, theta float64, mode table.Combining) ([]string, float64) {
	tbl := dramhit.New(dramhit.Config{
		Slots:          size,
		PrefetchWindow: 64,
		ProbeKernel:    cfg.ProbeKernel,
		Combining:      mode,
	})
	h := tbl.NewHandle()
	ks := workload.NewKeyStream(cfg.Seed, size/2, theta)
	const batch = 16
	reqs := make([]table.Request, batch)
	base := h.Stats()
	start := time.Now()
	for n := 0; n < ops; n += batch {
		b := batch
		if ops-n < b {
			b = ops - n
		}
		for i := 0; i < b; i++ {
			reqs[i] = table.Request{Op: table.Upsert, Key: ks.Next(), Value: 1}
		}
		rem := reqs[:b]
		for len(rem) > 0 {
			nr, _ := h.Submit(rem, nil)
			rem = rem[nr:]
		}
	}
	for {
		if _, done := h.Flush(nil); done {
			break
		}
	}
	elapsed := time.Since(start)
	st := h.Stats()
	n := float64(ops)
	kl := float64(st.KeyLines-base.KeyLines) / n
	cas := float64(st.CASAttempts-base.CASAttempts) / n
	mops := n / elapsed.Seconds() / 1e6
	return []string{
		fmt.Sprintf("%.2f", theta),
		mode.String(),
		fmt.Sprintf("%.1f", mops),
		fmt.Sprintf("%.3f", kl),
		fmt.Sprintf("%.3f", cas),
		fmt.Sprintf("%.3f", kl+cas),
		fmt.Sprintf("%.3f", float64(st.CombinedUpserts-base.CombinedUpserts)/n),
	}, mops
}
