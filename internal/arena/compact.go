package arena

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"slices"
	"sync/atomic"
	"time"
)

// This file is the compaction pass (see the package doc): its trigger, its
// choice of victims, the walk of the victims' records, and the Pass an Index
// relocates them through.

// Index is the structure whose words publish Refs into the arena: a bucket
// table, or the regions of one table over a shared arena. A compaction pass
// hands it the records of its victims, a chunk at a time.
type Index interface {
	// Relocate looks each record of recs up, in order. Where a word publishes
	// the record's Ref, it copies the record (Pass.Copy), swings the word to
	// the copy by CAS and settles the move (Pass.Done); a record no word
	// publishes is dead and is skipped. The pass's pin is held; Relocate takes
	// whatever excludes the index's own rebuilds around the whole chunk, and
	// returns early once a copy found the arena full (Pass.Stopped).
	Relocate(p *Pass, recs []Victim)
}

// Victim is one record a compaction pass read from a victim segment: its key
// and value, which alias the segment's bytes, and its Ref.
type Victim struct {
	Key, Value []byte
	Ref        Ref
}

// SetIndex makes ix the index compaction passes relocate records through. An
// arena has one, and a pass takes a record no word of ix publishes for dead,
// so every Ref published into the arena must be reachable through ix. It
// panics when the arena already has an index. An arena without one never
// compacts.
func (a *Arena) SetIndex(ix Index) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.index != nil {
		panic("arena: SetIndex on an arena that already has an index")
	}
	a.index = ix
}

// Pass policy. A pass starts once the dead bytes exceed a third of the live
// bytes (the arena is more than a quarter dead) and reach compactFloor
// segments' worth. Its victims are sealed slabs more than a quarter dead,
// most-dead first, until their dead bytes cover the excess over that third or
// they reach passMaxBytes. A victim more than a quarter dead copies under 3
// live bytes per dead byte it frees.
const (
	// compactFloor is the dead bytes, in segments' worth, below which no pass
	// starts however dead the arena is: a small arena is not worth a pass.
	compactFloor = 64
	// passMaxBytes bounds the victims of one pass: two slabs.
	passMaxBytes = 2 * slabBytes
	// walkChunk is the records one chunk of the walk hands the index under the
	// pass's pin. A grow waits for at most one chunk.
	walkChunk = 1024
)

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
	return a.excess(segs) > 0
}

// excess returns the dead bytes a pass should free: those of the linked
// segments past a third of their live bytes, or 0 while the dead bytes are
// within that third or under compactFloor segments' worth.
func (a *Arena) excess(segs []*segment) uint64 {
	var used, dead uint64
	for _, s := range segs {
		if s != nil {
			used += s.used.Load()
			dead += s.dead.Load()
		}
	}
	dead = min(dead, used) // an open segment's used trails its writer
	live := used - dead
	if 3*dead <= live || dead < compactFloor*uint64(a.segSize) {
		return 0
	}
	return dead - live/3
}

// pickVictims returns the segments a pass empties: those of the slabs that
// are not being carved, whose linked segments are all sealed and whose bytes
// are more than a quarter dead, most-dead first, until their dead bytes cover
// excess or their bytes reach passMaxBytes. A plain segment is its own slab.
func (a *Arena) pickVictims(excess uint64) []*segment {
	a.slabMu.Lock()
	cur := a.curSlab
	a.slabMu.Unlock()
	type group struct {
		used, dead uint64
		open       bool
		segs       []*segment
	}
	slabs := make(map[*slab]*group)
	var groups []*group
	for _, s := range *a.segs.Load() {
		if s == nil || (s.slab != nil && s.slab == cur) {
			continue
		}
		g := slabs[s.slab]
		if g == nil {
			g = new(group)
			groups = append(groups, g)
			if s.slab != nil {
				slabs[s.slab] = g
			}
		}
		sealed := s.sealed.Load() // before used, as Retire loads them
		g.used += s.used.Load()
		g.dead += s.dead.Load()
		g.open = g.open || !sealed
		g.segs = append(g.segs, s)
	}
	groups = slices.DeleteFunc(groups, func(g *group) bool { return g.open || 4*g.dead <= g.used })
	slices.SortStableFunc(groups, func(x, y *group) int {
		// x.dead/x.used against y.dead/y.used, most dead first
		l, r := x.dead*y.used, y.dead*x.used
		switch {
		case l > r:
			return -1
		case l < r:
			return 1
		}
		return 0
	})
	var victims []*segment
	var used, dead uint64
	for _, g := range groups {
		if dead >= excess || used >= passMaxBytes {
			break
		}
		victims = append(victims, g.segs...)
		used, dead = used+g.used, dead+g.dead
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
// an Advance first (segments already dead need no pass), then, if the arena
// is still worth compacting, the walk of the victims' records through the
// arena's index and own writer, the unlinking of the victims, and one
// runtime.GC when anything was unlinked.
func (a *Arena) compact() {
	defer a.compactMu.Unlock()
	a.mu.Lock()
	ix := a.index
	a.mu.Unlock()
	if a.cw == nil && ix != nil {
		a.cw = a.NewWriter()
	}
	n := a.Advance()
	if excess := a.excess(*a.segs.Load()); excess > 0 && ix != nil {
		if victims := a.pickVictims(excess); len(victims) > 0 {
			t0 := time.Now()
			p := &Pass{w: a.cw}
			a.walk(p, ix, victims)
			if p.stopped {
				n += a.Advance()
			} else {
				n += a.unlink(victims)
			}
			a.passes.Add(1)
			a.moved.Add(p.moved)
			a.scanned.Add(p.scanned)
			a.records.Add(p.records)
			storeMax(&a.passMax, int64(time.Since(t0)))
		}
	}
	if n > 0 {
		a.unlinked.Add(uint64(n))
		runtime.GC()
	}
}

// walk hands every record of the victims, in record order, to ix, in chunks
// of walkChunk records, each under the pass's pin. It reads the records from
// the victims' own buffers, not through the directory, and it stops walking a
// victim once the victim is fully dead: then no word publishes a record of
// it, and an Advance may unlink it and reuse its id, so a Ref into it could
// name another segment's record. The check is made under the pin, after which
// the victim, not yet fully dead, stays linked until the chunk ends.
func (a *Arena) walk(p *Pass, ix Index, victims []*segment) {
	if a.crecs == nil {
		a.crecs = make([]Victim, 0, walkChunk)
	}
	recs := a.crecs
	defer clear(recs[:cap(recs)]) // the records alias the victims, which must stay collectable
	for _, s := range victims {
		used := s.used.Load() // sealed: final
		p.scanned += used
		for off := uint64(0); off < used && !p.stopped; {
			p.enter()
			if s.dead.Load() >= used {
				p.exit()
				break
			}
			recs = recs[:0]
			for off < used && len(recs) < walkChunk {
				k, v, n := record(s.buf[off:])
				recs = append(recs, Victim{Key: k, Value: v, Ref: MakeRef(s.id, uint32(off))})
				off += uint64(n)
			}
			p.records += uint64(len(recs))
			ix.Relocate(p, recs)
			p.exit()
		}
	}
}

// storeMax raises m to v when v is larger.
func storeMax(m *atomic.Int64, v int64) {
	for o := m.Load(); v > o && !m.CompareAndSwap(o, v); o = m.Load() {
	}
}

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

// Pass is one running compaction pass, as an Index's Relocate sees it: Copy
// copies a victim's record through the arena's own writer, and Done settles
// the copy once the index word's CAS has run.
type Pass struct {
	w       *Writer
	moved   uint64 // record bytes swung to copies
	scanned uint64 // bytes of the victims walked
	records uint64 // records handed to the index
	stopped bool
	t0      time.Time
}

// enter starts a chunk: it pins the arena through the pass's writer, so the
// victim and the records the chunk reads stay linked.
func (p *Pass) enter() {
	p.w.Enter(p.w.a)
	p.t0 = time.Now()
}

// exit ends a chunk, releasing the pin, and records the chunk's length in
// CompactStats.MaxChunk.
func (p *Pass) exit() {
	p.w.Exit()
	storeMax(&p.w.a.chunkMax, int64(time.Since(p.t0)))
}

// Copy appends rec through the pass's writer and returns the copy's Ref, not
// yet published. ok is false when the arena has no room for the copy, which
// stops the pass (Stopped).
func (p *Pass) Copy(rec Victim) (cp Ref, ok bool) {
	if p.stopped {
		return 0, false
	}
	if cp, ok = p.w.TryAppend(rec.Key, rec.Value); !ok {
		p.stopped = true
	}
	return cp, ok
}

// Done settles a Copy: swung reports whether the index word now publishes
// cp in place of old. The record no longer published is retired.
func (p *Pass) Done(old, cp Ref, swung bool) {
	if swung {
		p.moved += p.w.a.retire(old)
	} else {
		p.w.a.Retire(cp) // a writer moved the word first
	}
}

// Stopped reports whether a Copy found the arena full.
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
