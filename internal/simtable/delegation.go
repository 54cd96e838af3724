package simtable

import (
	"dramhit/internal/hashfn"
	"dramhit/internal/memsim"
)

// simMsg is a delegated update traveling through a simulated section queue.
type simMsg struct {
	h uint64
	// visibleAt is the producer's clock when the message's section was
	// published; the consumer may not observe it earlier.
	visibleAt float64
}

// simQueue models one SPSC section queue: message slots live on real
// simulated cache lines (four 16-byte messages per line), the shared
// head/tail indices live on two further lines, and messages become visible
// only when their section is published — all the costs of §3.3 fall out of
// ordinary Access calls on these lines.
type simQueue struct {
	buf       []simMsg
	local     []simMsg // produced but unpublished (current section)
	baseLine  uint64
	headLine  uint64
	tailLine  uint64
	capacity  int
	section   int
	sent      uint64 // published messages
	consumed  uint64
	produced  uint64 // including unpublished
	ringLines uint64
}

const msgsPerLine = 4 // 16-byte messages

func newSimQueue(la *lineAlloc, capacity, section int) *simQueue {
	ringLines := uint64(capacity/msgsPerLine + 1)
	return &simQueue{
		baseLine:  la.alloc(ringLines),
		headLine:  la.alloc(1),
		tailLine:  la.alloc(1),
		capacity:  capacity,
		section:   section,
		ringLines: ringLines,
	}
}

// msgLine returns the simulated line of message index i.
func (q *simQueue) msgLine(i uint64) uint64 {
	return q.baseLine + (i/msgsPerLine)%q.ringLines
}

// send enqueues a message on producer thread t, returning false (and
// charging only the check) when the queue is full — the caller backs off.
func (q *simQueue) send(t *memsim.Thread, h uint64) bool {
	if int(q.produced-q.consumed) >= q.capacity {
		// Re-read the shared consumer index (possibly a coherence miss).
		t.Access(q.tailLine, memsim.Load)
		if int(q.produced-q.consumed) >= q.capacity {
			return false
		}
	}
	t.Compute(msgEnqueue)
	t.Access(q.msgLine(q.produced), memsim.Store)
	q.local = append(q.local, simMsg{h: h})
	q.produced++
	if len(q.local) >= q.section {
		q.publish(t)
	}
	return true
}

// publish makes the buffered section visible and updates the shared head
// index (a store other cores will read: this is the amortized cross-core
// transfer of the section design).
func (q *simQueue) publish(t *memsim.Thread) {
	if len(q.local) == 0 {
		return
	}
	t.Access(q.headLine, memsim.Store)
	for i := range q.local {
		q.local[i].visibleAt = t.Clock
		q.buf = append(q.buf, q.local[i])
	}
	q.local = q.local[:0]
	q.sent = q.produced
}

// recv dequeues one visible message on consumer thread t.
func (q *simQueue) recv(t *memsim.Thread) (simMsg, bool) {
	if q.consumed >= q.sent || len(q.buf) == 0 {
		return simMsg{}, false
	}
	m := q.buf[0]
	if m.visibleAt > t.Clock {
		// Published in the consumer's future; not yet observable.
		return simMsg{}, false
	}
	q.buf = q.buf[1:]
	t.Compute(msgDequeue)
	t.Access(q.msgLine(q.consumed), memsim.Load)
	if q.consumed%msgsPerLine == 0 {
		// Entering a fresh line: stream-prefetch the following line of the
		// ring so its transfer overlaps with consuming the current four
		// messages (§3.3: "We prefetch only the next line of the queue
		// data when we approach the end of the current cache-line").
		t.Prefetch(q.msgLine(q.consumed + msgsPerLine))
	}
	q.consumed++
	if q.consumed%uint64(q.section) == 0 {
		t.Access(q.tailLine, memsim.Store)
	}
	return m, true
}

// prefetchHead prefetches the line the consumer will read on its next
// visit to this queue (paper §3.3: "Consumer prefetches the next queue
// before trying to access it"); by the time the round-robin returns here the
// transfer has landed.
func (q *simQueue) prefetchHead(t *memsim.Thread) {
	t.Prefetch(q.msgLine(q.consumed))
}

// backlog reports published-but-unconsumed messages.
func (q *simQueue) backlog() int { return int(q.sent - q.consumed) }

// split divides a DRAMHiT-P run's threads 1:3 (paper §4.2) into producers,
// at least one, and partition owners. owners is 0 for a single thread.
func split(threads int) (producers, owners int) {
	producers = max(1, threads/4)
	return producers, threads - producers
}

// mesh is the delegation fabric of §3.2: a section queue from every sender
// to every consumer. Consumer c polls its queues round-robin, prefetching
// the next one's head, and leaves once every sender has closed and its
// queues are empty.
type mesh struct {
	q      [][]*simQueue // [sender][consumer]
	rr     []int         // per consumer: the sender it polls next
	closed []bool        // per sender: its last section is published
	open   int           // senders not yet closed
	// owners holds DRAMHiT-P's per-partition single-writer pipelines, which
	// apply what each consumer receives; RunDelegation has none.
	owners []*pipeline
}

func newMesh(la *lineAlloc, senders, consumers int) *mesh {
	m := &mesh{
		q:      make([][]*simQueue, senders),
		rr:     make([]int, consumers),
		closed: make([]bool, senders),
		open:   senders,
	}
	for s := range m.q {
		m.q[s] = make([]*simQueue, consumers)
		for c := range m.q[s] {
			m.q[s][c] = newSimQueue(la, 512, 64)
		}
	}
	return m
}

// newPartitions builds DRAMHiT-P's write path: a mesh whose consumer c is
// simulated thread first+c and owns the partition ownerOf routes to it.
func newPartitions(sim *memsim.Sim, la *lineAlloc, arr *array, window, senders, first, owners int, simd bool) *mesh {
	m := newMesh(la, senders, owners)
	m.owners = make([]*pipeline, owners)
	for c := range m.owners {
		m.owners[c] = newPipeline(arr, window, simd, true)
		// Partition lines are only ever cached by their owner: the probe
		// filter resolves them without cross-CCX broadcasts.
		sim.Threads[first+c].ProbeExempt = true
	}
	return m
}

// send routes update h from sender s to its partition's owner. A full
// queue charges a back-off and reports false; the op is not done.
func (m *mesh) send(t *memsim.Thread, s int, h uint64) bool {
	t.Compute(hashCycles + fullCheckCycles)
	c := int(hashfn.Fastrange(h, uint64(len(m.owners))))
	if !m.q[s][c].send(t, h) {
		t.Compute(100)
		return false
	}
	return true
}

// close publishes sender s's trailing sections, once.
func (m *mesh) close(t *memsim.Thread, s int) {
	if m.closed[s] {
		return
	}
	m.closed[s] = true
	m.open--
	for _, q := range m.q[s] {
		q.publish(t)
	}
}

// recv takes one visible message for consumer c, polling each sender at
// most once, and prefetches the head of the queue it will poll next (§3.3).
func (m *mesh) recv(t *memsim.Thread, c int) (uint64, bool) {
	n := len(m.q)
	for tries := 0; tries < n; tries++ {
		q := m.q[m.rr[c]%n][c]
		m.rr[c]++
		if msg, ok := q.recv(t); ok {
			m.q[m.rr[c]%n][c].prefetchHead(t)
			return msg.h, true
		}
	}
	return 0, false
}

// drained reports whether every sender has closed and consumer c's queues
// are empty.
func (m *mesh) drained(c int) bool {
	if m.open > 0 {
		return false
	}
	for _, row := range m.q {
		if row[c].backlog() > 0 {
			return false
		}
	}
	return true
}

// apply receives one update for owner c and submits it to its pipeline.
func (m *mesh) apply(t *memsim.Thread, c int) bool {
	h, ok := m.recv(t, c)
	if ok {
		m.owners[c].submit(t, h, true)
	}
	return ok
}

// idle is owner c's step when nothing arrived: once drained it flushes its
// pipeline and leaves (false), otherwise it charges an empty poll.
func (m *mesh) idle(t *memsim.Thread, c int) bool {
	if m.drained(c) {
		m.owners[c].flush(t)
		return false
	}
	t.Compute(pollEmptyCycles)
	return true
}
