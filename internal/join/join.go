// Package join implements a main-memory equi-join built on DRAMHiT's
// batched interface — the hash-join workload class the paper's introduction
// motivates (Balkesen et al., Blanas et al., Kim et al.). The build phase
// streams the build relation's keys into the table through the insert
// pipeline; the probe phase streams the probe relation through batched
// lookups, so every probe's cache miss is prefetched off the critical path —
// exactly the access pattern hash joins are bottlenecked by.
//
// The build side must be unique on the join key (a primary key); duplicate
// build keys are reported as an error during Build.
package join

import (
	"fmt"

	"dramhit/internal/dramhit"
	"dramhit/internal/table"
)

// Row is a (key, rowID) pair; rowID is the caller's payload (a row pointer,
// an offset — any uint64 except dramhit's reserved value).
type Row struct {
	Key   uint64
	RowID uint64
}

// Match is one join result: the probe row index and the matching build
// row's payload.
type Match struct {
	ProbeIndex uint64
	BuildRowID uint64
}

// Joiner holds the built hash table.
type Joiner struct {
	t     *dramhit.Table
	built int
}

// NewJoiner sizes the table for the build relation (slots = rows/fill).
func NewJoiner(buildRows int, fill float64) *Joiner {
	if fill <= 0 || fill >= 1 {
		fill = 0.75
	}
	slots := uint64(float64(buildRows)/fill) + 64
	return &Joiner{t: dramhit.New(dramhit.Config{Slots: slots})}
}

// Build inserts the build relation. It returns an error on a duplicate key
// (the join requires a unique build side). Build may be called from several
// goroutines with disjoint row slices; duplicate detection is then done by
// the caller or by a Validate pass.
func (j *Joiner) Build(rows []Row) error {
	h := j.t.NewHandle()
	reqs := make([]table.Request, 0, 64)
	flush := func() error {
		rem := reqs
		for len(rem) > 0 {
			n, _ := h.Submit(rem, nil)
			rem = rem[n:]
		}
		reqs = reqs[:0]
		return nil
	}
	for _, r := range rows {
		reqs = append(reqs, table.Request{Op: table.Put, Key: r.Key, Value: r.RowID})
		if len(reqs) == cap(reqs) {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	if err := flush(); err != nil {
		return err
	}
	for {
		if _, done := h.Flush(nil); done {
			break
		}
	}
	before := j.built
	j.built += len(rows)
	if j.t.Len() != j.built {
		j.built = before + j.t.Len() - before // reconcile
		return fmt.Errorf("join: duplicate build keys detected (%d rows, %d distinct)", before+len(rows), j.t.Len())
	}
	return nil
}

// Probe streams the probe relation's keys through batched lookups, calling
// emit for every match. probeKeys[i] joins against the build side; the
// match carries i so the caller can fetch its probe row. Returns the number
// of matches.
func (j *Joiner) Probe(probeKeys []uint64, emit func(Match)) int {
	h := j.t.NewHandle()
	reqs := make([]table.Request, 0, 64)
	resps := make([]table.Response, 256)
	matches := 0
	collect := func(rs []table.Response) {
		for _, r := range rs {
			if r.Found {
				matches++
				emit(Match{ProbeIndex: r.ID, BuildRowID: r.Value})
			}
		}
	}
	flush := func() {
		rem := reqs
		for len(rem) > 0 {
			nreq, nresp := h.Submit(rem, resps)
			collect(resps[:nresp])
			rem = rem[nreq:]
		}
		reqs = reqs[:0]
	}
	for i, k := range probeKeys {
		reqs = append(reqs, table.Request{Op: table.Get, Key: k, ID: uint64(i)})
		if len(reqs) == cap(reqs) {
			flush()
		}
	}
	flush()
	for {
		nresp, done := h.Flush(resps)
		collect(resps[:nresp])
		if done {
			break
		}
	}
	return matches
}
