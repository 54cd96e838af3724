// Package delegation implements DRAMHiT-P's scalable delegation fabric
// (paper §3.3): a full mesh of section queues connecting P producer threads
// to C consumer threads. Producers send fire-and-forget messages addressed
// to a consumer; consumers poll their incoming queues round-robin,
// prefetching the next queue before switching to it. A lightweight barrier
// lets a producer wait until everything it sent has been executed, which the
// partitioned hash table uses for read-your-writes adapters and orderly
// shutdown.
package delegation

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dramhit/internal/queue"
)

// Message is the unit of delegation. The paper's microbenchmark uses
// 16-byte messages; the hash table packs (op, key, value) into the three
// words, with the op folded into Aux.
type Message struct {
	A, B uint64
	// Aux carries the operation code (and, for barrier messages, the
	// producer index).
	Aux uint64
}

// barrierOp is reserved for fabric-internal barrier messages.
const barrierOp = ^uint64(0)

// Config parameterizes a Fabric.
type Config struct {
	// Producers and Consumers set the mesh dimensions.
	Producers, Consumers int
	// QueueCapacity is the per-queue capacity in messages (default 512).
	QueueCapacity int
	// Sections is the number of sections per queue (default capacity/8;
	// larger sections amortize coherence traffic at the cost of latency).
	Sections int
}

// Fabric is the P×C mesh. Construct with New, then hand Producer i to the
// i-th producing goroutine and Consumer j to the j-th consuming goroutine.
type Fabric struct {
	cfg Config
	// queues[p][c] carries messages from producer p to consumer c.
	queues [][]*queue.SPSC[Message]
	// acks[p] counts barrier messages from producer p executed by any
	// consumer.
	acks []paddedCounter
	// closed[c] counts producers that signalled completion to consumer c.
	closed []paddedCounter

	mu        sync.Mutex
	producers []*Producer
	consumers []*Consumer
}

type paddedCounter struct {
	n atomic.Uint64
	_ [7]uint64
}

// New builds a fabric.
func New(cfg Config) *Fabric {
	if cfg.Producers <= 0 || cfg.Consumers <= 0 {
		panic("delegation: Producers and Consumers must be positive")
	}
	if cfg.QueueCapacity == 0 {
		cfg.QueueCapacity = 512
	}
	f := &Fabric{
		cfg:       cfg,
		queues:    make([][]*queue.SPSC[Message], cfg.Producers),
		acks:      make([]paddedCounter, cfg.Producers),
		closed:    make([]paddedCounter, cfg.Consumers),
		producers: make([]*Producer, cfg.Producers),
		consumers: make([]*Consumer, cfg.Consumers),
	}
	for p := range f.queues {
		f.queues[p] = make([]*queue.SPSC[Message], cfg.Consumers)
		for c := range f.queues[p] {
			f.queues[p][c] = queue.NewSPSC[Message](cfg.QueueCapacity, cfg.Sections)
		}
	}
	return f
}

// Producers returns the configured producer count.
func (f *Fabric) Producers() int { return f.cfg.Producers }

// Consumers returns the configured consumer count.
func (f *Fabric) Consumers() int { return f.cfg.Consumers }

// Producer returns the sending endpoint for producer index p. Endpoints are
// memoized — repeated calls return the same instance, which carries the
// barrier sequence state — and each must be used by one goroutine at a time.
func (f *Fabric) Producer(p int) *Producer {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.producers[p] == nil {
		f.producers[p] = &Producer{f: f, id: p, qs: f.queues[p]}
	}
	return f.producers[p]
}

// Consumer returns the polling endpoint for consumer index c. Endpoints are
// memoized and each must be used by one goroutine at a time.
func (f *Fabric) Consumer(c int) *Consumer {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.consumers[c] == nil {
		qs := make([]*queue.SPSC[Message], f.cfg.Producers)
		for p := 0; p < f.cfg.Producers; p++ {
			qs[p] = f.queues[p][c]
		}
		f.consumers[c] = &Consumer{f: f, id: c, qs: qs}
	}
	return f.consumers[c]
}

// Producer is the per-thread sending endpoint.
type Producer struct {
	f      *Fabric
	id     int
	qs     []*queue.SPSC[Message]
	sent   uint64 // barrier sequence
	closed bool
}

// Send delivers m to consumer c, spinning (with scheduler yields) while the
// queue is full. Delivery is fire-and-forget: there is no response channel,
// which is what keeps delegation within its tens-of-cycles budget.
func (p *Producer) Send(c int, m Message) {
	q := p.qs[c]
	for spins := 0; !q.Enqueue(m); spins++ {
		// The consumer is behind; make sure our earlier messages are
		// visible to it (it may be blocked on an unpublished section) and
		// let it run.
		q.Flush()
		if spins > 8 {
			runtime.Gosched()
		}
	}
}

// Flush publishes any partially filled sections on all queues. Call at
// batch boundaries.
func (p *Producer) Flush() {
	for _, q := range p.qs {
		q.Flush()
	}
}

// Pending returns this producer's total unconsumed backlog across all of
// its queues — an instantaneous, racy estimate suitable for a queue-depth
// gauge, not for synchronization (use Barrier for that).
func (p *Producer) Pending() int {
	n := 0
	for _, q := range p.qs {
		n += q.PendingShared()
	}
	return n
}

// Barrier sends a barrier message to every consumer and waits until all of
// them have executed it, which — because each queue is FIFO, and a consumer
// drains what it applies asynchronously before it acknowledges (Serve) —
// implies every earlier message from this producer has been executed too.
func (p *Producer) Barrier() {
	p.sent++
	target := p.sent * uint64(len(p.qs))
	for c := range p.qs {
		p.Send(c, Message{Aux: barrierOp, A: uint64(p.id)})
	}
	p.Flush()
	for spins := 0; p.f.acks[p.id].n.Load() < target; spins++ {
		if spins > 8 {
			runtime.Gosched()
		}
	}
}

// Close signals every consumer that this producer will send no more
// messages. Idempotent; must happen after the owning goroutine has
// quiesced (the caller provides that ordering).
func (p *Producer) Close() {
	if p.closed {
		return
	}
	p.closed = true
	p.Flush()
	for c := range p.qs {
		p.f.closed[c].n.Add(1)
	}
}

// Consumer is the per-thread polling endpoint.
type Consumer struct {
	f    *Fabric
	id   int
	qs   []*queue.SPSC[Message]
	next int
}

// poll returns the next available message, barriers included, scanning the
// incoming queues round-robin starting after the last served queue and
// prefetching the queue it will inspect next. ok is false when no queue
// currently has a published message.
func (c *Consumer) poll() (Message, bool) {
	n := len(c.qs)
	for i := 0; i < n; i++ {
		idx := c.next
		c.next++
		if c.next == n {
			c.next = 0
		}
		// Prefetch the queue we will look at after this one (paper §3.3
		// "Consumer prefetches the next queue before trying to access it").
		c.qs[c.next].PrefetchNext()
		if m, ok := c.qs[idx].Dequeue(); ok {
			return m, true
		}
	}
	var zero Message
	return zero, false
}

// done reports whether all producers have closed and every queue is
// drained.
func (c *Consumer) done() bool {
	if c.f.closed[c.id].n.Load() != uint64(c.f.cfg.Producers) {
		return false
	}
	// All producers closed after their final Flush, so anything sent is
	// published; check emptiness.
	for _, q := range c.qs {
		if q.Pending() > 0 {
			return false
		}
	}
	return true
}

// Run is Serve for a consumer that executes every message inside fn: it has
// nothing to drain.
func (c *Consumer) Run(fn func(Message)) { c.Serve(fn, func() {}) }

// Serve polls until every producer has closed and every queue is empty,
// handing each message to apply. apply may leave what it was handed in
// flight (DRAMHiT-P's owners submit each update into a prefetch ring), and
// drain completes all of it. Serve drains, if apply ran since the last
// drain, before it acknowledges a barrier (so Barrier means executed, not
// dequeued) and whenever its queues run dry, hence also before it returns.
// A consumer that stays idle for a long stretch backs off to short sleeps so
// parked delegation threads do not monopolize a CPU (the paper's consumers
// busy-poll on dedicated cores; Go consumers share cores with application
// goroutines).
func (c *Consumer) Serve(apply func(Message), drain func()) {
	idle := 0
	held := false
	for {
		m, ok := c.poll()
		if ok && m.Aux != barrierOp {
			idle = 0
			apply(m)
			held = true
			continue
		}
		// A barrier, or nothing to poll: first complete what apply holds.
		if held {
			drain()
			held = false
		}
		if ok {
			idle = 0
			c.f.acks[m.A].n.Add(1)
			continue
		}
		if c.done() {
			return
		}
		idle++
		switch {
		case idle > 4096:
			time.Sleep(20 * time.Microsecond)
		case idle > 2:
			runtime.Gosched()
		}
	}
}
