package arena

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"time"
)

// This file is the compaction pass (see the package doc): its trigger, its
// choice of victims, and the Pass an Index relocates records through.

// Index is a structure whose words publish Refs into the arena, such as a
// bucket table. A compaction pass calls Relocate on every index registered
// with AddIndex.
type Index interface {
	// Relocate walks the index and, for every word whose Ref Pass.Move
	// copies, swings the word to the copy by CAS and settles the move with
	// Pass.Done. It works in bounded chunks, each between Pass.Enter and
	// Pass.Exit and under whatever excludes the index's own rebuilds. It
	// returns false to stop the walk: the index was rebuilt meanwhile, and
	// the pass walks it again, or Move ran out of room (Pass.Stopped), and
	// the pass is abandoned.
	Relocate(p *Pass) bool
}

// AddIndex registers ix with the arena's compaction passes. Every index that
// publishes Refs into the arena must be registered, or a pass would empty a
// victim under it.
func (a *Arena) AddIndex(ix Index) {
	a.mu.Lock()
	a.indexes = append(a.indexes, ix)
	a.mu.Unlock()
}

// sealDue is the trigger a seal checks: whether the arena is worth
// compacting. The directory walk it takes is paced so that a seal costs about
// compactFloor segment loads on average: on a directory of n segments it runs
// on every n/compactFloor-th seal.
func (a *Arena) sealDue() bool {
	n := a.seals.Add(1)
	segs := *a.segs.Load()
	if n%uint64(max(len(segs)/compactFloor, 1)) != 0 {
		return false
	}
	return a.worthCompacting(segs)
}

// worthCompacting reports whether the linked segments' dead bytes exceed
// their live bytes and reach compactFloor segments' worth.
func (a *Arena) worthCompacting(segs []*segment) bool {
	var used, dead uint64
	for _, s := range segs {
		if s != nil {
			used += s.used.Load()
			dead += s.dead.Load()
		}
	}
	dead = min(dead, used) // an open segment's used trails its writer
	return dead > used-dead && dead >= compactFloor*uint64(a.segSize)
}

// pickVictims marks and returns the segments a pass empties: those of every
// slab that is not being carved, whose linked segments are all sealed, and
// whose bytes are at least half dead. A plain segment is its own slab. The
// caller holds compactMu.
func (a *Arena) pickVictims() []*segment {
	a.slabMu.Lock()
	cur := a.curSlab
	a.slabMu.Unlock()
	type tally struct {
		used, dead uint64
		open       bool
	}
	segs := *a.segs.Load()
	tallies := make(map[*slab]*tally)
	var victims []*segment
	for _, s := range segs {
		if s == nil {
			continue
		}
		sealed := s.sealed.Load() // before used, as Retire loads them
		used, dead := s.used.Load(), s.dead.Load()
		if s.slab == nil {
			if sealed && 2*dead >= used {
				victims = append(victims, s)
			}
			continue
		}
		t := tallies[s.slab]
		if t == nil {
			t = new(tally)
			tallies[s.slab] = t
		}
		t.used, t.dead, t.open = t.used+used, t.dead+dead, t.open || !sealed
	}
	for _, s := range segs {
		if s == nil || s.slab == nil || s.slab == cur {
			continue
		}
		if t := tallies[s.slab]; !t.open && 2*t.dead >= t.used {
			victims = append(victims, s)
		}
	}
	for _, s := range victims {
		s.victim = true
	}
	return victims
}

// startPass starts a compaction pass on a goroutine of its own, unless one
// is running. It is called from a seal that found the arena worth
// compacting, so no write, reply or batch ever waits for the pass.
func (a *Arena) startPass() {
	if a.compactMu.TryLock() {
		go a.compact()
	}
}

// WaitPass returns once no compaction pass is running. For audits and tests
// at quiescence: a pass a later seal starts is not waited for.
func (a *Arena) WaitPass() {
	a.compactMu.Lock()
	a.compactMu.Unlock()
}

// compact is the pass startPass started, under compactMu, which it releases:
// an Advance first (segments already dead need no walk), then, if the arena
// is still worth compacting, the walk of every registered index through the
// arena's own writer (again, up to walkTries, when an index was rebuilt
// under it), the unlinking of the victims, and one runtime.GC when anything
// was unlinked.
func (a *Arena) compact() {
	defer a.compactMu.Unlock()
	if a.cw == nil {
		a.cw = a.NewWriter()
	}
	n := a.Advance()
	if a.worthCompacting(*a.segs.Load()) {
		if victims := a.pickVictims(); len(victims) > 0 {
			a.mu.Lock()
			indexes := a.indexes
			a.mu.Unlock()
			p := &Pass{w: a.cw}
			done := false
			for try := 0; !done && try < walkTries && !p.stopped; try++ {
				done = true
				for _, ix := range indexes {
					if !ix.Relocate(p) {
						done = false
						break
					}
				}
			}
			for _, s := range victims {
				s.victim = false
			}
			a.passes.Add(1)
			a.moved.Add(p.moved)
			if done {
				n += a.unlink(victims)
			} else {
				n += a.Advance()
			}
		}
	}
	if n > 0 {
		a.unlinked.Add(uint64(n))
		runtime.GC()
	}
}

// walkTries bounds the walks of one pass. An index rebuilt during a walk
// abandons it; the next walk covers the new generation, whose words still
// point into the victims the first walk did not reach.
const walkTries = 3

// unlinkWait bounds how long a pass waits for the pins that keep its emptied
// victims linked.
const unlinkWait = 100 * time.Millisecond

// unlink is the Advance that ends a completed pass, repeated until every
// victim is unlinked or unlinkWait has passed. A pin entered before the pass
// retired a victim's last record holds the victim until it exits; handles pin
// for one batch or one write, so the wait is short, and the pass's goroutine
// is the only one that waits.
func (a *Arena) unlink(victims []*segment) int {
	n := a.Advance()
	for deadline := time.Now().Add(unlinkWait); a.anyLinked(victims) && time.Now().Before(deadline); {
		time.Sleep(100 * time.Microsecond)
		n += a.Advance()
	}
	return n
}

// anyLinked reports whether any of segs is still in the directory.
func (a *Arena) anyLinked(segs []*segment) bool {
	dir := *a.segs.Load()
	for _, s := range segs {
		if dir[s.id] == s {
			return true
		}
	}
	return false
}

// Pass is one running compaction pass. An Index's Relocate drives it: Enter
// and Exit bracket each chunk of its walk, Move copies a victim's record
// through the arena's own writer, and Done settles the copy once the index
// word's CAS has run.
type Pass struct {
	w       *Writer
	moved   uint64
	stopped bool
	t0      time.Time
}

// Enter starts a chunk: it pins the arena through the pass's writer, so the
// records the chunk reads stay linked.
func (p *Pass) Enter() {
	p.w.Enter(p.w.a)
	p.t0 = time.Now()
}

// Exit ends a chunk, releasing the pin, and records the chunk's length in
// CompactStats.MaxChunk.
func (p *Pass) Exit() {
	p.w.Exit()
	d := int64(time.Since(p.t0))
	for m := p.w.a.chunkMax.Load(); d > m && !p.w.a.chunkMax.CompareAndSwap(m, d); m = p.w.a.chunkMax.Load() {
	}
}

// Move copies ref's record through the pass's writer when ref lies in a
// victim segment, and returns the copy's Ref, not yet published. ok is false
// when ref is not in a victim, and when the arena has no room for the copy,
// which stops the pass (Stopped). Called inside a chunk, on a Ref loaded from
// a published index word.
func (p *Pass) Move(ref Ref) (cp Ref, ok bool) {
	a := p.w.a
	if p.stopped || !(*a.segs.Load())[ref.seg()].victim {
		return 0, false
	}
	k, v := a.Record(ref)
	if cp, ok = p.w.TryAppend(k, v); !ok {
		p.stopped = true
	}
	return cp, ok
}

// Done settles a Move: swung reports whether the index word now publishes
// cp in place of old. The record no longer published is retired.
func (p *Pass) Done(old, cp Ref, swung bool) {
	if swung {
		p.moved += p.w.a.retire(old)
	} else {
		p.w.a.Retire(cp) // a writer moved the word first
	}
}

// Stopped reports whether a Move found the arena full.
func (p *Pass) Stopped() bool { return p.stopped }

// Check reports whether ref addresses a whole record inside a linked
// segment's appended bytes: within used on a sealed segment, within the page
// its writer's bump pointer is on for an open one (used trails it by less than
// a page). For audits at quiescence: it takes no pin.
func (a *Arena) Check(ref Ref) error {
	segs := *a.segs.Load()
	id, off := ref.seg(), uint64(ref.off())
	if int(id) >= len(segs) || segs[id] == nil {
		return fmt.Errorf("ref %#x: segment %d is not linked", uint64(ref), id)
	}
	s := segs[id]
	sealed := s.sealed.Load()
	bound := s.used.Load()
	if !sealed {
		bound = min(uint64(len(s.buf)), (bound/pageBytes+1)*pageBytes)
	}
	if off >= bound {
		return fmt.Errorf("ref %#x: offset past segment %d's %d bytes", uint64(ref), id, bound)
	}
	buf := s.buf[off:bound]
	klen, p := binary.Uvarint(buf)
	if p <= 0 {
		return fmt.Errorf("ref %#x: bad key length", uint64(ref))
	}
	vlen, q := binary.Uvarint(buf[p:])
	if q <= 0 || klen+vlen > uint64(len(buf)-p-q) {
		return fmt.Errorf("ref %#x: record runs past segment %d's %d bytes", uint64(ref), id, bound)
	}
	return nil
}
