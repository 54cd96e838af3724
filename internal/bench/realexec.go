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
