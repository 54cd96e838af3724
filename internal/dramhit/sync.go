package dramhit

import (
	"dramhit/internal/table"
)

// Sync adapts a Handle to the synchronous table.Map interface by submitting
// one request and flushing. It exists for the conformance test suite and
// for callers that want DRAMHiT's layout without the batched interface; it
// deliberately forfeits the pipeline (every op pays its miss synchronously,
// like Folklore), so it is not how the table is meant to be used.
type Sync struct {
	h     *Handle
	reqs  [1]table.Request
	resps [1]table.Response
}

// NewSync creates a synchronous adapter with its own handle.
func (t *Table) NewSync() *Sync {
	return &Sync{h: t.NewHandle()}
}

// Clone returns a new single-goroutine view over the same table. A Sync is
// not safe for concurrent use; give each goroutine its own clone.
func (s *Sync) Clone() table.Map { return s.h.t.NewSync() }

func (s *Sync) do(req table.Request) (table.Response, bool) {
	s.reqs[0] = req
	nreq, n := s.h.Submit(s.reqs[:], s.resps[:])
	if nreq != 1 {
		panic("dramhit: Sync submit did not consume its request")
	}
	for {
		more, done := s.h.Flush(s.resps[n:])
		n += more
		if done {
			break
		}
	}
	if n > 0 {
		return s.resps[0], true
	}
	return table.Response{}, false
}

// Get implements table.Map.
func (s *Sync) Get(key uint64) (uint64, bool) {
	r, ok := s.do(table.Request{Op: table.Get, Key: key})
	if !ok {
		return 0, false
	}
	return r.Value, r.Found
}

// Put implements table.Map.
func (s *Sync) Put(key, value uint64) bool {
	before := s.h.stats.Failed
	s.do(table.Request{Op: table.Put, Key: key, Value: value})
	return s.h.stats.Failed == before
}

// Upsert implements table.Map. The returned value is re-read, which is
// exact only in the absence of racing upserts to the same key (the batched
// interface does not report update results; see paper §3.2).
func (s *Sync) Upsert(key, delta uint64) (uint64, bool) {
	before := s.h.stats.Failed
	s.do(table.Request{Op: table.Upsert, Key: key, Value: delta})
	if s.h.stats.Failed != before {
		return 0, false
	}
	v, _ := s.Get(key)
	return v, true
}

// Delete implements table.Map.
func (s *Sync) Delete(key uint64) bool {
	before := s.h.stats.Hits
	s.do(table.Request{Op: table.Delete, Key: key})
	return s.h.stats.Hits != before
}

// Len implements table.Map.
func (s *Sync) Len() int { return s.h.t.Len() }

// Cap implements table.Map.
func (s *Sync) Cap() int { return s.h.t.Cap() }

var _ table.Map = (*Sync)(nil)

// batchChunk is how many requests (and responses) the batch helpers stage on
// their stack at a time: the helpers allocate nothing, whatever len(keys) is.
// Chunks are submitted back to back — the pipeline is flushed once, after the
// last — so chunking costs no overlap.
const batchChunk = 64

// GetBatch looks up keys and stores results positionally: found[i] and
// vals[i] correspond to keys[i]. It demonstrates the ID-matching pattern
// from the paper (submit the array position as the identifier, scatter
// completions by ID). vals and found must be at least as long as keys.
func (h *Handle) GetBatch(keys []uint64, vals []uint64, found []bool) {
	var reqs [batchChunk]table.Request
	var resps [batchChunk]table.Response
	scatter := func(n int) {
		for _, r := range resps[:n] {
			vals[r.ID] = r.Value
			found[r.ID] = r.Found
		}
	}
	for start := 0; start < len(keys); {
		n := 0
		for ; n < batchChunk && start < len(keys); n, start = n+1, start+1 {
			reqs[n] = table.Request{Op: table.Get, Key: keys[start], ID: uint64(start)}
		}
		for rem := reqs[:n]; len(rem) > 0; {
			nreq, nresp := h.Submit(rem, resps[:])
			scatter(nresp)
			rem = rem[nreq:]
		}
	}
	for {
		nresp, done := h.Flush(resps[:])
		scatter(nresp)
		if done {
			return
		}
	}
}

// PutBatch inserts all key/value pairs and flushes the pipeline.
func (h *Handle) PutBatch(keys, vals []uint64) {
	h.updateBatch(table.Put, keys, vals, 0)
}

// UpsertBatch applies delta upserts for every key and flushes.
func (h *Handle) UpsertBatch(keys []uint64, delta uint64) {
	h.updateBatch(table.Upsert, keys, nil, delta)
}

// updateBatch submits one op per key — valued vals[i], or delta when vals is
// nil — and flushes.
func (h *Handle) updateBatch(op table.Op, keys, vals []uint64, delta uint64) {
	var reqs [batchChunk]table.Request
	var none []table.Response
	for start := 0; start < len(keys); {
		n := 0
		for ; n < batchChunk && start < len(keys); n, start = n+1, start+1 {
			v := delta
			if vals != nil {
				v = vals[start]
			}
			reqs[n] = table.Request{Op: op, Key: keys[start], Value: v}
		}
		for rem := reqs[:n]; len(rem) > 0; {
			nreq, _ := h.Submit(rem, none)
			rem = rem[nreq:]
		}
	}
	for {
		if _, done := h.Flush(none); done {
			return
		}
	}
}
