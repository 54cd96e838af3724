package workload_test

import (
	"fmt"
	"testing"
	"time"

	"dramhit/internal/kvserver"
	"dramhit/internal/obs"
	"dramhit/internal/table"
	"dramhit/internal/workload"
)

// recordInto is the standard latency hookup the real drivers use: shared
// worker shards, per-op-class histograms.
func recordInto(pool []*obs.Worker) func(int, table.Op, bool, bool, uint64) {
	return func(ci int, op table.Op, hit, _ bool, ns uint64) {
		pool[ci%len(pool)].Op[obs.OpClass(op, hit)].Record(ns)
	}
}

func startKV(t *testing.T) *kvserver.Server {
	t.Helper()
	s, err := kvserver.New(kvserver.Config{RespAddr: "127.0.0.1:0", Slots: 4096})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// TestSocketClientClosedLoop drives a live server with a mixed stream and
// checks the driver's accounting: every reply consumed, classified into the
// right op-class histograms, no protocol errors.
func TestSocketClientClosedLoop(t *testing.T) {
	srv := startKV(t)
	keys := make([]uint64, 300)
	for i := range keys {
		keys[i] = uint64(i)
	}
	if err := workload.SocketLoad(srv.RespAddr(), keys, 24, 4, 64); err != nil {
		t.Fatal(err)
	}

	reg := obs.NewWith(0, 1)
	pool := []*obs.Worker{reg.Worker("sock-w0"), reg.Worker("sock-w1")}
	const conns, perConn = 4, 500
	c := &workload.SocketClient{
		Addr: srv.RespAddr(), Conns: conns, Pipeline: 16, OpsPerConn: perConn,
		Record: recordInto(pool),
		Stream: func(ci int) workload.SocketStream {
			var kb, vb []byte
			return func(i int) workload.SocketOp {
				switch i % 5 {
				case 0: // present-key GET
					kb = workload.AppendByteKey(kb[:0], keys[i%len(keys)])
					return workload.SocketOp{Op: table.Get, Key: kb}
				case 1: // absent-key GET
					kb = workload.AppendByteKey(kb[:0], uint64(1<<40+i))
					return workload.SocketOp{Op: table.Get, Key: kb}
				case 2: // SET
					kb = workload.AppendByteKey(kb[:0], keys[i%len(keys)])
					vb = workload.FillValue(vb, uint64(i), 16)
					return workload.SocketOp{Op: table.Put, Key: kb, Value: vb}
				case 3: // INCR on a numeric counter keyspace
					kb = append(kb[:0], fmt.Sprintf("ctr%d-%d", ci, i%7)...)
					return workload.SocketOp{Op: table.Upsert, Key: kb}
				default: // DEL (mostly misses: disjoint keyspace)
					kb = append(kb[:0], fmt.Sprintf("gone%d", i)...)
					return workload.SocketOp{Op: table.Delete, Key: kb}
				}
			}
		},
	}
	stats, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Ops != conns*perConn {
		t.Fatalf("ops = %d, want %d", stats.Ops, conns*perConn)
	}
	if stats.Errors != 0 {
		t.Fatalf("%d error replies from a well-formed stream", stats.Errors)
	}
	var total uint64
	classes := map[int]uint64{}
	for _, w := range pool {
		for cls := 0; cls < obs.NumOpClasses; cls++ {
			classes[cls] += w.Op[cls].Count()
			total += w.Op[cls].Count()
		}
	}
	if total != conns*perConn {
		t.Fatalf("latency samples = %d, want %d", total, conns*perConn)
	}
	for _, cls := range []int{obs.OpGetHit, obs.OpGetMiss, obs.OpPut, obs.OpUpsert, obs.OpDeleteMiss} {
		if classes[cls] == 0 {
			t.Errorf("op class %s recorded no samples", obs.OpClassNames[cls])
		}
	}
}

// TestSocketClientOpenLoop pins the pacing contract: at a fixed target rate
// the run cannot finish faster than ops/rate, and every op still completes.
func TestSocketClientOpenLoop(t *testing.T) {
	srv := startKV(t)
	const conns, perConn, rate = 2, 100, 2000.0
	c := &workload.SocketClient{
		Addr: srv.RespAddr(), Conns: conns, Pipeline: 8, OpsPerConn: perConn,
		Rate: rate,
		Stream: func(ci int) workload.SocketStream {
			var kb []byte
			return func(i int) workload.SocketOp {
				kb = workload.AppendByteKey(kb[:0], uint64(i))
				return workload.SocketOp{Op: table.Get, Key: kb}
			}
		},
	}
	stats, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Ops != conns*perConn {
		t.Fatalf("ops = %d, want %d", stats.Ops, conns*perConn)
	}
	// Each connection paces at rate/conns ops/sec; the last of perConn ops
	// is scheduled at (perConn-1)/(rate/conns) seconds. Allow generous
	// slack below that bound for scheduling coarseness.
	minElapsed := time.Duration(float64(perConn-2) / (rate / conns) * float64(time.Second))
	if stats.Elapsed < minElapsed {
		t.Fatalf("open-loop run finished in %v, faster than the %v schedule", stats.Elapsed, minElapsed)
	}
}

// TestSocketLoadThenRead checks the load helper end to end: every loaded
// key reads back as a hit.
func TestSocketLoadThenRead(t *testing.T) {
	srv := startKV(t)
	keys := make([]uint64, 257) // odd count exercises the tail padding
	for i := range keys {
		keys[i] = uint64(i * 3)
	}
	if err := workload.SocketLoad(srv.RespAddr(), keys, 8, 3, 32); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewWith(0, 1)
	pool := []*obs.Worker{reg.Worker("sock-r0")}
	c := &workload.SocketClient{
		Addr: srv.RespAddr(), Conns: 1, Pipeline: 32, OpsPerConn: len(keys),
		Record: recordInto(pool),
		Stream: func(ci int) workload.SocketStream {
			var kb []byte
			return func(i int) workload.SocketOp {
				kb = workload.AppendByteKey(kb[:0], keys[i])
				return workload.SocketOp{Op: table.Get, Key: kb}
			}
		},
	}
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if n := pool[0].Op[obs.OpGetMiss].Count(); n != 0 {
		t.Fatalf("%d loaded keys read back as misses", n)
	}
	if n := pool[0].Op[obs.OpGetHit].Count(); n != uint64(len(keys)) {
		t.Fatalf("get_hit count = %d, want %d", n, len(keys))
	}
}
