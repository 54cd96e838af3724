// Socket client driver: the RESP-speaking load side of loadgen -socket. It
// drives a live dramhit-server over many
// concurrent TCP connections, pipelining requests so the server's
// per-connection byte pipeline has wire batches to drain, and reports each
// reply's outcome and latency through a caller-supplied callback.
//
// The driver is deliberately ycsb- and obs-agnostic — it consumes a
// caller-supplied request stream and hands outcomes back — because ycsb
// imports workload for its key and value-size streams, and the obs
// package's own tests import ycsb.

package workload

import (
	"bufio"
	"fmt"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dramhit/internal/table"
)

// SocketOp is one request in a socket client stream: GET (table.Get), SET
// (table.Put, Value attached), DEL (table.Delete) or INCR (table.Upsert).
// Key and Value are consumed before the stream's next call, so callers may
// reuse their backing buffers between calls.
type SocketOp struct {
	Op    table.Op
	Key   []byte
	Value []byte
}

// SocketStream yields a connection's request sequence; i counts from 0 and
// is called exactly once per submitted request, in order.
type SocketStream func(i int) SocketOp

// SocketClient drives a RESP server over Conns concurrent TCP connections.
// Each connection is a goroutine that writes wire batches of up to Pipeline
// requests and reads the replies back — the client half of the server's
// parse-batch/flush discipline, so loadgen's network batching exercises the
// server's prefetch-window batching.
type SocketClient struct {
	Addr       string
	Conns      int
	Pipeline   int // max requests in flight per connection (default 16)
	OpsPerConn int
	// Rate is the open-loop target in ops/sec summed over all connections;
	// 0 runs closed-loop (send a full pipeline, read it back, repeat). In
	// open-loop mode each request has a fixed scheduled instant and its
	// latency is measured from that schedule, so server-side queueing shows
	// up in the tail instead of silently stretching the send rate
	// (coordinated omission).
	Rate float64
	// Stream builds connection ci's request sequence.
	Stream func(ci int) SocketStream
	// Record, when set, is called once per reply with the connection
	// index, the opcode it answered, the outcome (GET hit / DEL removed /
	// writes always true), whether the reply was an error, and the
	// measured latency in nanoseconds. It runs on every connection
	// goroutine concurrently — implementations record into shared atomic
	// histograms (obs.Worker shards). Nil skips latency accounting
	// entirely — the load phase runs that way.
	Record func(ci int, op table.Op, hit, isErr bool, ns uint64)
}

// SocketStats aggregates one Run.
type SocketStats struct {
	Ops     uint64 // replies read and classified
	Errors  uint64 // -ERR replies (counted in Ops too)
	Elapsed time.Duration
}

// Run dials every connection, then drives them concurrently until each has
// completed OpsPerConn requests. Elapsed covers the drive phase only, not
// the dials, so Mops = Ops/Elapsed is the sustained service rate.
func (c *SocketClient) Run() (SocketStats, error) {
	pipeline := c.Pipeline
	if pipeline <= 0 {
		pipeline = 16
	}
	conns := make([]net.Conn, c.Conns)
	for i := range conns {
		nc, err := net.Dial("tcp", c.Addr)
		if err != nil {
			for _, pc := range conns[:i] {
				pc.Close()
			}
			return SocketStats{}, fmt.Errorf("dial conn %d/%d: %w", i, c.Conns, err)
		}
		conns[i] = nc
	}

	var ops, errs atomic.Uint64
	var mu sync.Mutex
	var firstErr error
	start := time.Now()
	var intervalNS float64
	if c.Rate > 0 {
		intervalNS = float64(c.Conns) / c.Rate * 1e9
	}
	var wg sync.WaitGroup
	for ci, nc := range conns {
		wg.Add(1)
		go func(ci int, nc net.Conn) {
			defer wg.Done()
			defer nc.Close()
			o, e, err := c.runConn(ci, nc, pipeline, intervalNS, start)
			ops.Add(o)
			errs.Add(e)
			if err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = fmt.Errorf("conn %d: %w", ci, err)
				}
				mu.Unlock()
			}
		}(ci, nc)
	}
	wg.Wait()
	return SocketStats{Ops: ops.Load(), Errors: errs.Load(), Elapsed: time.Since(start)}, firstErr
}

// pendSock is one in-flight request: its opcode (reply classification needs
// it) and the instant its latency is measured from.
type pendSock struct {
	op      table.Op
	startNS int64
}

func (c *SocketClient) runConn(ci int, nc net.Conn, pipeline int, intervalNS float64, epoch time.Time) (ops, errs uint64, err error) {
	stream := c.Stream(ci)
	br := bufio.NewReaderSize(nc, 1<<16)
	wire := make([]byte, 0, 1<<16)
	pends := make([]pendSock, 0, pipeline)
	for done := 0; done < c.OpsPerConn; {
		batch := pipeline
		if rem := c.OpsPerConn - done; batch > rem {
			batch = rem
		}
		if intervalNS > 0 {
			// Sleep until the next request's scheduled instant, then send
			// everything already due (a client that fell behind bursts to
			// catch up, bounded by the pipeline depth).
			sched := epoch.Add(time.Duration(float64(done) * intervalNS))
			if d := time.Until(sched); d > 0 {
				time.Sleep(d)
			}
			due := int(float64(time.Since(epoch).Nanoseconds())/intervalNS) + 1 - done
			if due < 1 {
				due = 1
			}
			if batch > due {
				batch = due
			}
		}
		wire = wire[:0]
		pends = pends[:0]
		for i := 0; i < batch; i++ {
			op := stream(done + i)
			wire = appendRESPCommand(wire, op)
			ts := time.Now().UnixNano()
			if intervalNS > 0 {
				ts = epoch.Add(time.Duration(float64(done+i) * intervalNS)).UnixNano()
			}
			pends = append(pends, pendSock{op.Op, ts})
		}
		if _, werr := nc.Write(wire); werr != nil {
			return ops, errs, werr
		}
		for _, p := range pends {
			hit, isErr, rerr := readRESPReply(br, p.op)
			if rerr != nil {
				return ops, errs, rerr
			}
			ops++
			if isErr {
				errs++
			}
			if c.Record != nil {
				c.Record(ci, p.op, hit, isErr, uint64(time.Now().UnixNano()-p.startNS))
			}
		}
		done += batch
	}
	return ops, errs, nil
}

// appendRESPCommand renders op in multibulk client framing.
func appendRESPCommand(b []byte, op SocketOp) []byte {
	verb, argc := "GET", 2
	switch op.Op {
	case table.Put:
		verb, argc = "SET", 3
	case table.Delete:
		verb = "DEL"
	case table.Upsert:
		verb = "INCR"
	}
	b = append(b, '*')
	b = strconv.AppendInt(b, int64(argc), 10)
	b = append(b, '\r', '\n')
	b = appendRESPBulkString(b, verb)
	b = appendRESPBulk(b, op.Key)
	if argc == 3 {
		b = appendRESPBulk(b, op.Value)
	}
	return b
}

func appendRESPBulk(b, arg []byte) []byte {
	b = append(b, '$')
	b = strconv.AppendInt(b, int64(len(arg)), 10)
	b = append(b, '\r', '\n')
	b = append(b, arg...)
	return append(b, '\r', '\n')
}

func appendRESPBulkString(b []byte, arg string) []byte {
	b = append(b, '$')
	b = strconv.AppendInt(b, int64(len(arg)), 10)
	b = append(b, '\r', '\n')
	b = append(b, arg...)
	return append(b, '\r', '\n')
}

// readRESPReply consumes one reply and resolves its outcome against the
// opcode it answers: GET bulk → hit, GET nil → miss, SET "+OK" → hit,
// INCR ":n" → hit, DEL ":1"/":0" → hit/miss. Error replies ("-...") report
// a miss-side outcome and flag isErr.
func readRESPReply(br *bufio.Reader, op table.Op) (hit, isErr bool, err error) {
	line, err := br.ReadSlice('\n')
	if err != nil {
		return false, false, err
	}
	if len(line) < 3 || line[len(line)-2] != '\r' {
		return false, false, fmt.Errorf("malformed reply line %q", line)
	}
	switch line[0] {
	case '+':
		return true, false, nil
	case ':':
		return !(op == table.Delete && line[1] == '0'), false, nil
	case '-':
		return false, true, nil
	case '$':
		n, aerr := strconv.Atoi(string(line[1 : len(line)-2]))
		if aerr != nil {
			return false, false, fmt.Errorf("bad bulk header %q", line)
		}
		if n < 0 {
			return false, false, nil
		}
		if _, derr := br.Discard(n + 2); derr != nil {
			return false, false, derr
		}
		return true, false, nil
	}
	return false, false, fmt.Errorf("unexpected reply type %q", line)
}

// SocketLoad SETs every key — rendered in the canonical "user<id>" byte
// form with deterministic size-byte FillValue payloads — through conns
// pipelined connections: the load phase in front of a timed socket run.
// Connection ci covers keys[ci], keys[ci+conns], … so the work divides
// evenly without copying the key slice.
func SocketLoad(addr string, keys []uint64, size, conns, pipeline int) error {
	if conns > len(keys) {
		conns = len(keys)
	}
	if conns < 1 {
		conns = 1
	}
	per := (len(keys) + conns - 1) / conns
	c := &SocketClient{
		Addr: addr, Conns: conns, Pipeline: pipeline, OpsPerConn: per,
		Stream: func(ci int) SocketStream {
			var kb, vb []byte
			return func(i int) SocketOp {
				idx := i*conns + ci
				if idx >= len(keys) {
					idx = len(keys) - 1 // tail padding re-SETs the last key
				}
				k := keys[idx]
				kb = AppendByteKey(kb[:0], k)
				vb = FillValue(vb, k, size)
				return SocketOp{Op: table.Put, Key: kb, Value: vb}
			}
		},
	}
	_, err := c.Run()
	return err
}
