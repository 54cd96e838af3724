package dramhitp

import (
	"dramhit/internal/table"
)

// Sync adapts the partitioned table to the synchronous table.Map interface
// for the conformance suite and for callers that need read-your-writes. It
// issues a delegation barrier after every update, which forfeits the entire
// point of fire-and-forget delegation — use WriteHandle/ReadHandle directly
// in performance-sensitive code.
type Sync struct {
	t *Table
	w *WriteHandle
	r *ReadHandle
	// dirty is set by writes and cleared by the barrier a subsequent read
	// issues, so write bursts cost one barrier, not one per write.
	dirty bool
}

// settle barriers if there are unexecuted writes from this view.
func (s *Sync) settle() {
	if s.dirty {
		s.w.Barrier()
		s.dirty = false
	}
}

// NewSync returns a synchronous single-goroutine view. Each view consumes
// one producer slot; Config.Producers bounds how many can exist. Table.Close
// closes every producer endpoint, the view's included, so a caller that
// uses NewSync exclusively just closes the table.
func (t *Table) NewSync() *Sync {
	return &Sync{t: t, w: t.NewWriteHandle(), r: t.NewReadHandle()}
}

// Clone implements the tabletest.Cloner contract: a fresh single-goroutine
// view over the same table.
func (s *Sync) Clone() table.Map { return s.t.NewSync() }

// Shutdown closes the underlying table (all producer endpoints and the
// delegation threads). All goroutines using views of the table must have
// quiesced. It implements the conformance suite's teardown hook.
func (s *Sync) Shutdown() { s.t.Close() }

// Get implements table.Map (direct, non-delegated read, after settling any
// outstanding writes from this view).
func (s *Sync) Get(key uint64) (uint64, bool) {
	s.settle()
	return s.r.Get(key)
}

// Put implements table.Map. The write is delegated fire-and-forget; a
// partition-full denial reports false.
func (s *Sync) Put(key, value uint64) bool {
	if !s.w.Put(key, value) {
		return false
	}
	s.dirty = true
	return true
}

// Upsert implements table.Map. Reading the resulting value requires a
// barrier (delegated updates return no result).
func (s *Sync) Upsert(key, delta uint64) (uint64, bool) {
	if !s.w.Upsert(key, delta) {
		return 0, false
	}
	s.w.Barrier()
	s.dirty = false
	return s.r.Get(key)
}

// Delete implements table.Map.
func (s *Sync) Delete(key uint64) bool {
	s.settle()
	_, present := s.r.Get(key)
	s.w.Delete(key)
	s.dirty = true
	return present
}

// Release settles outstanding writes; a goroutine that used a cloned view
// calls it before handing control back (tabletest's concurrency helpers do).
func (s *Sync) Release() { s.settle() }

// Len implements table.Map.
func (s *Sync) Len() int {
	s.settle()
	return s.t.Len()
}

// Cap implements table.Map.
func (s *Sync) Cap() int { return s.t.Cap() }

var _ table.Map = (*Sync)(nil)
