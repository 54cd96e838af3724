// Package ycsb defines the standard YCSB core workload mixes (A–F) over
// this repository's hash tables, for the load-generator tool and for
// apples-to-apples comparison with the key-value-store literature the paper
// situates itself in (MICA and friends). Operations map onto the table.Map
// vocabulary; scans — which open-addressing point-lookup tables do not
// support — are approximated by a configurable burst of point reads, as is
// conventional when benchmarking hash tables with YCSB E.
package ycsb

import (
	"fmt"
	"math/rand"

	"dramhit/internal/workload"
)

// OpKind is a YCSB operation.
type OpKind uint8

// YCSB operation kinds.
const (
	Read OpKind = iota
	Update
	Insert
	Scan
	ReadModifyWrite
)

// String implements fmt.Stringer.
func (o OpKind) String() string {
	switch o {
	case Read:
		return "read"
	case Update:
		return "update"
	case Insert:
		return "insert"
	case Scan:
		return "scan"
	case ReadModifyWrite:
		return "rmw"
	}
	return "invalid"
}

// Mix is a workload definition: operation proportions plus the request
// distribution.
type Mix struct {
	Name   string
	Read   float64
	Update float64
	Insert float64
	Scan   float64
	RMW    float64
	// Zipfian selects the request distribution (YCSB's default theta is
	// 0.99); false = uniform.
	Zipfian bool
}

// The YCSB core workloads.
var (
	// A: update heavy (50/50 read/update), zipfian.
	A = Mix{Name: "A", Read: 0.5, Update: 0.5, Zipfian: true}
	// B: read mostly (95/5), zipfian.
	B = Mix{Name: "B", Read: 0.95, Update: 0.05, Zipfian: true}
	// C: read only, zipfian.
	C = Mix{Name: "C", Read: 1.0, Zipfian: true}
	// D: read latest — approximated with a zipfian over the insertion
	// order's tail via the scrambled rank space.
	D = Mix{Name: "D", Read: 0.95, Insert: 0.05, Zipfian: true}
	// E: short scans (95/5 scan/insert), zipfian.
	E = Mix{Name: "E", Scan: 0.95, Insert: 0.05, Zipfian: true}
	// F: read-modify-write (50/50 read/rmw), zipfian.
	F = Mix{Name: "F", Read: 0.5, RMW: 0.5, Zipfian: true}
)

// ByName returns a core workload by letter.
func ByName(name string) (Mix, error) {
	switch name {
	case "A", "a":
		return A, nil
	case "B", "b":
		return B, nil
	case "C", "c":
		return C, nil
	case "D", "d":
		return D, nil
	case "E", "e":
		return E, nil
	case "F", "f":
		return F, nil
	}
	return Mix{}, fmt.Errorf("ycsb: unknown workload %q (A-F)", name)
}

// Op is one generated operation.
type Op struct {
	Kind OpKind
	Key  uint64
	// ScanLen applies to Scan ops (number of point reads to issue).
	ScanLen int
	// ValueSize is the write's value length in bytes; 0 unless a value
	// sizer is attached (see WithValueSizer), in which case Update, Insert
	// and ReadModifyWrite ops carry their drawn size.
	ValueSize int
}

// Generator produces a deterministic operation stream for one worker.
type Generator struct {
	mix      Mix
	keys     *workload.KeyStream
	rng      *rand.Rand
	salt     uint64
	inserted uint64 // next fresh rank for Insert ops
	maxScan  int
	// miss redirects that fraction of Read ops to guaranteed-absent keys.
	miss    float64
	missRng *rand.Rand
	records uint64
	// sizer, when attached, draws a value size for every write op (the
	// byte-KV benchmarks use it; uint64 runs leave it nil and ValueSize 0).
	sizer *workload.ValueSizer
}

// missRankBase offsets miss ranks far above both the loaded population
// ([0, records)) and the ranks Insert ops consume (records, records+1, ...),
// so a redirected Read can never collide with a key any generator with the
// same seed inserts — ScrambleRank is a bijection, making the misses
// structural rather than probabilistic.
const missRankBase = 1 << 40

// Theta is YCSB's default zipfian constant.
const Theta = 0.99

// NewGenerator builds a generator over a keyspace of `records` loaded rows.
// Insert operations extend the space with fresh keys. Generators with the
// same seed produce identical streams.
func NewGenerator(mix Mix, records uint64, seed int64) *Generator {
	theta := -1.0
	return NewGeneratorTheta(mix, records, seed, theta)
}

// EffectiveTheta resolves a requested zipfian constant against a mix:
// theta < 0 selects the mix's default (Theta when the mix is zipfian, 0 —
// uniform — otherwise); theta = 0 forces a uniform draw even on zipfian
// mixes, and any positive value sets the skew directly. It is the skew a
// generator built with the same arguments draws, so a run report states it
// rather than the request.
func EffectiveTheta(mix Mix, theta float64) float64 {
	if theta >= 0 {
		return theta
	}
	if mix.Zipfian {
		return Theta
	}
	return 0
}

// NewGeneratorTheta is NewGenerator with an explicit zipfian constant,
// resolved by EffectiveTheta.
func NewGeneratorTheta(mix Mix, records uint64, seed int64, theta float64) *Generator {
	return &Generator{
		mix:      mix,
		keys:     workload.NewKeyStream(seed, records, EffectiveTheta(mix, theta)),
		rng:      rand.New(rand.NewSource(seed ^ 0x7f4a7c15)),
		salt:     rand.New(rand.NewSource(seed)).Uint64() | 1,
		inserted: records,
		maxScan:  100,
		records:  records,
	}
}

// NewGeneratorMiss is NewGenerator with a miss ratio: each Read op is, with
// probability miss, redirected to a key from the rank range
// [missRankBase, missRankBase+records) under the generator's own salt — a
// range disjoint from both the loaded ranks and every rank Insert ops can
// reach, so the lookup misses by construction. miss=0 degenerates to
// NewGenerator exactly, draw for draw.
func NewGeneratorMiss(mix Mix, records uint64, seed int64, miss float64) *Generator {
	return NewGeneratorMissTheta(mix, records, seed, miss, -1)
}

// NewGeneratorMissTheta combines the miss-ratio and explicit-theta
// parameters (theta < 0 selects the mix's default, see NewGeneratorTheta).
func NewGeneratorMissTheta(mix Mix, records uint64, seed int64, miss, theta float64) *Generator {
	if miss < 0 || miss > 1 {
		panic("ycsb: miss ratio must be in [0, 1]")
	}
	g := NewGeneratorTheta(mix, records, seed, theta)
	g.miss = miss
	if miss > 0 {
		g.missRng = rand.New(rand.NewSource(seed ^ 0x6d697373)) // "miss"
	}
	return g
}

// WithValueSizer attaches a value-size stream: every Update, Insert and
// ReadModifyWrite op draws its ValueSize from it. Returns g for chaining.
func (g *Generator) WithValueSizer(vs *workload.ValueSizer) *Generator {
	g.sizer = vs
	return g
}

// writeSize draws the next write's value size (0 when no sizer is attached).
func (g *Generator) writeSize() int {
	if g.sizer == nil {
		return 0
	}
	return g.sizer.Next()
}

// readKey draws a Read key, honoring the miss ratio.
func (g *Generator) readKey() uint64 {
	if g.missRng != nil && g.missRng.Float64() < g.miss {
		r := missRankBase + uint64(g.missRng.Int63n(int64(g.records)))
		return workload.ScrambleRank(r, g.salt)
	}
	return g.keys.Next()
}

// LoadKeys returns the keys of the initial dataset (rank order); use with
// the table's batch-insert path during the load phase.
func LoadKeys(records uint64, seed int64) []uint64 {
	return workload.UniqueKeys(seed, int(records))
}

// Next returns the next operation.
func (g *Generator) Next() Op {
	r := g.rng.Float64()
	m := g.mix
	switch {
	case r < m.Read:
		return Op{Kind: Read, Key: g.readKey()}
	case r < m.Read+m.Update:
		return Op{Kind: Update, Key: g.keys.Next(), ValueSize: g.writeSize()}
	case r < m.Read+m.Update+m.Insert:
		g.inserted++
		return Op{Kind: Insert, Key: workload.ScrambleRank(g.inserted, g.salt), ValueSize: g.writeSize()}
	case r < m.Read+m.Update+m.Insert+m.Scan:
		return Op{Kind: Scan, Key: g.keys.Next(), ScanLen: 1 + g.rng.Intn(g.maxScan)}
	default:
		return Op{Kind: ReadModifyWrite, Key: g.keys.Next(), ValueSize: g.writeSize()}
	}
}

// Proportions returns the mix's proportions for validation.
func (m Mix) Proportions() map[OpKind]float64 {
	return map[OpKind]float64{
		Read: m.Read, Update: m.Update, Insert: m.Insert, Scan: m.Scan, ReadModifyWrite: m.RMW,
	}
}
