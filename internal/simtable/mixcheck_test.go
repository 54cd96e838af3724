package simtable

import (
	"testing"

	"dramhit/internal/hashfn"
	"dramhit/internal/memsim"
)

func TestMixedDRAMHiTPRisesWithReads(t *testing.T) {
	run := func(p float64) float64 {
		return Run(Config{Machine: memsim.IntelSkylake(), Kind: DRAMHiTP, Threads: 64,
			Slots: largeTest, ReadProb: p, MeasureOps: 50000, Seed: 4}, Mixed).Mops
	}
	p0, p5, p1 := run(0), run(0.5), run(1)
	t.Logf("p=0: %.0f, p=0.5: %.0f, p=1: %.0f", p0, p5, p1)
	// The paper's Figure 8c: throughput rises with the read fraction. The
	// -P curve is nearly flat through the middle (delegation costs trade
	// against read savings), so assert the strong endpoints plus
	// no-collapse in the middle.
	if p1 < p0*1.3 {
		t.Errorf("DRAMHiT-P all-reads %.0f should clearly exceed all-writes %.0f", p1, p0)
	}
	if p5 < p0*0.85 {
		t.Errorf("DRAMHiT-P mid-mix %.0f collapsed below all-writes %.0f", p5, p0)
	}
}

// TestDRAMHiTPResendsRefusedOps: a DRAMHiT-P producer whose section queue is
// full resends the update it could not send, as Layer 1's Producer.Send
// blocks, instead of drawing a replacement. Every op is one draw from the
// producer's stream (one key derivation), so a run of MeasureOps ops derives
// exactly MeasureOps keys however often the mesh refuses. Zipf-0.99 writes
// keep the owners of hot partitions behind their queues: inserts on 64
// threads, and a 10%-read mix on 16, where every thread also sends.
func TestDRAMHiTPResendsRefusedOps(t *testing.T) {
	for _, c := range []struct {
		name     string
		mix      OpMix
		threads  int
		readProb float64
	}{
		{"inserts", Inserts, 64, 0},
		{"mixed", Mixed, 16, 0.1},
	} {
		base := Config{Machine: memsim.IntelSkylake(), Kind: DRAMHiTP, Threads: c.threads, Slots: 1 << 20,
			Theta: 0.99, ReadProb: c.readProb, MeasureOps: 160_000, Seed: 42}
		cfg := base.defaults(c.mix)
		la := &lineAlloc{}
		draws := 0
		keyOf := func(rank uint64) uint64 { draws++; return hashfn.City64(rank ^ 0x9e3779b97f4a7c15) }
		prefill := uint64(float64(cfg.Slots) * cfg.Prefill)
		arr := prefilled(cfg.Slots, prefill, cfg.Seed, keyOf, la)
		sim := memsim.NewSim(cfg.Machine, cfg.Threads)
		pollBase := la.alloc(1 << 22)
		draws = 0
		runDRAMHiTP(sim, arr, la, cfg, c.mix, keyOf, prefill, pollBase, false)
		if draws != cfg.MeasureOps {
			t.Errorf("%s: %d ops drew %d keys; a refused op was replaced, not resent", c.name, cfg.MeasureOps, draws)
		}
	}
}
