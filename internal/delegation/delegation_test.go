package delegation

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestSingleProducerSingleConsumer(t *testing.T) {
	f := New(Config{Producers: 1, Consumers: 1, QueueCapacity: 64})
	p := f.Producer(0)
	c := f.Consumer(0)
	const n = 10000
	var got []uint64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c.Run(func(m Message) { got = append(got, m.A) })
	}()
	for i := uint64(0); i < n; i++ {
		p.Send(0, Message{A: i, B: i * 7})
	}
	p.Close()
	wg.Wait()
	if len(got) != n {
		t.Fatalf("received %d messages, want %d", len(got), n)
	}
	for i, v := range got {
		if v != uint64(i) {
			t.Fatalf("message %d arrived as %d (order violated)", i, v)
		}
	}
}

func TestMeshDelivery(t *testing.T) {
	// P producers × C consumers; each producer sends a tagged message
	// stream to every consumer; each consumer must receive exactly
	// P*perQueue messages with per-producer FIFO order.
	const P, C, perQueue = 4, 3, 2000
	f := New(Config{Producers: P, Consumers: C, QueueCapacity: 128})
	var wg sync.WaitGroup
	recvd := make([][]uint64, C) // consumer -> count per producer stream position check
	errs := make(chan string, C)
	for ci := 0; ci < C; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			next := make([]uint64, P) // expected next seq per producer
			count := 0
			cons := f.Consumer(ci)
			cons.Run(func(m Message) {
				prod := m.Aux
				if m.A != next[prod] {
					select {
					case errs <- "per-producer FIFO violated":
					default:
					}
				}
				next[prod]++
				count++
			})
			recvd[ci] = next
			if count != P*perQueue {
				select {
				case errs <- "wrong message count":
				default:
				}
			}
		}(ci)
	}
	for pi := 0; pi < P; pi++ {
		wg.Add(1)
		go func(pi int) {
			defer wg.Done()
			p := f.Producer(pi)
			seq := make([]uint64, C)
			for i := 0; i < C*perQueue; i++ {
				c := i % C
				p.Send(c, Message{A: seq[c], Aux: uint64(pi)})
				seq[c]++
			}
			p.Close()
		}(pi)
	}
	wg.Wait()
	select {
	case e := <-errs:
		t.Fatal(e)
	default:
	}
	for ci := 0; ci < C; ci++ {
		for pi := 0; pi < P; pi++ {
			if recvd[ci][pi] != perQueue {
				t.Fatalf("consumer %d got %d messages from producer %d, want %d",
					ci, recvd[ci][pi], pi, perQueue)
			}
		}
	}
}

func TestBarrierWaitsForExecution(t *testing.T) {
	// After Barrier returns, every message sent before it must have been
	// executed by the consumers.
	const n = 5000
	f := New(Config{Producers: 1, Consumers: 2, QueueCapacity: 64})
	p := f.Producer(0)
	var executed [2]int
	var wg sync.WaitGroup
	for ci := 0; ci < 2; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			f.Consumer(ci).Run(func(m Message) { executed[ci]++ })
		}(ci)
	}
	for i := 0; i < n; i++ {
		p.Send(i%2, Message{A: uint64(i)})
	}
	p.Barrier()
	// The barrier guarantees execution; counts are written by the consumer
	// goroutines but those writes happen-before the ack the barrier waits
	// on only per-consumer... to keep the check simple, barrier again and
	// close, then join.
	sum := 0
	p.Close()
	wg.Wait()
	sum = executed[0] + executed[1]
	if sum != n {
		t.Fatalf("executed %d, want %d", sum, n)
	}
}

func TestBarrierOrdering(t *testing.T) {
	// Messages sent before a barrier are all executed before any message
	// sent after it (per consumer, FIFO).
	f := New(Config{Producers: 1, Consumers: 1, QueueCapacity: 32})
	p := f.Producer(0)
	var seen []uint64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		f.Consumer(0).Run(func(m Message) { seen = append(seen, m.A) })
	}()
	for i := uint64(0); i < 10; i++ {
		p.Send(0, Message{A: i})
	}
	p.Barrier()
	for i := uint64(100); i < 110; i++ {
		p.Send(0, Message{A: i})
	}
	p.Close()
	wg.Wait()
	if len(seen) != 20 {
		t.Fatalf("saw %d messages", len(seen))
	}
	for i := 0; i < 10; i++ {
		if seen[i] != uint64(i) || seen[10+i] != uint64(100+i) {
			t.Fatalf("barrier did not order: %v", seen)
		}
	}
}

func TestCloseWithoutMessages(t *testing.T) {
	f := New(Config{Producers: 2, Consumers: 2})
	var wg sync.WaitGroup
	for ci := 0; ci < 2; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			f.Consumer(ci).Run(func(Message) { t.Error("unexpected message") })
		}(ci)
	}
	for pi := 0; pi < 2; pi++ {
		f.Producer(pi).Close()
	}
	wg.Wait() // must terminate
}

func TestPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New with zero consumers did not panic")
		}
	}()
	New(Config{Producers: 1, Consumers: 0})
}

// TestBarrierWaitsForDrain: a consumer that applies asynchronously holds
// what it was handed until drain runs, so a Barrier must not return before
// the drain that covers its messages has finished, however slow that drain
// is. The drain here sleeps before it publishes, so a consumer that
// acknowledged at dequeue and drained afterwards would let the barrier see
// nothing applied.
func TestBarrierWaitsForDrain(t *testing.T) {
	f := New(Config{Producers: 1, Consumers: 1, QueueCapacity: 64})
	p := f.Producer(0)
	var applied atomic.Int64
	held := int64(0)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		f.Consumer(0).Serve(func(Message) { held++ }, func() {
			time.Sleep(5 * time.Millisecond)
			applied.Add(held)
			held = 0
		})
	}()
	for round := int64(1); round <= 3; round++ {
		for i := 0; i < 3; i++ {
			p.Send(0, Message{A: uint64(i)})
		}
		p.Barrier()
		if got := applied.Load(); got != 3*round {
			t.Fatalf("round %d: barrier returned with %d messages applied, want %d", round, got, 3*round)
		}
	}
	p.Close()
	wg.Wait()
}

func BenchmarkSendReceive1x1(b *testing.B) {
	f := New(Config{Producers: 1, Consumers: 1, QueueCapacity: 1024})
	p := f.Producer(0)
	done := make(chan struct{})
	go func() {
		defer close(done)
		f.Consumer(0).Run(func(Message) {})
	}()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Send(0, Message{A: uint64(i)})
	}
	p.Close()
	<-done
}
