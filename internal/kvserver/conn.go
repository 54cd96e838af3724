package kvserver

import (
	"io"
	"net"
	"strconv"

	idramhit "dramhit/internal/dramhit"
	"dramhit/internal/mctext"
	"dramhit/internal/readbuf"
	"dramhit/internal/resp"
	"dramhit/internal/table"
)

// Reply kinds: what the completion callback appends for each submitted
// request. The meta queue is strictly FIFO-parallel to submissions, which
// is sound because the byte pipeline completes in submission order.
const (
	kRespGet = iota
	kRespSet
	kRespDel
	kMcGet     // one key of a memcached get: VALUE block on hit, nothing on miss
	kMcGetLast // last key: as kMcGet, then END
	kMcSet
	kMcSetQuiet
	kMcDel
	kMcDelQuiet
)

// The replies to a write the table could not store: its arena has no room
// left for the record (ByteCompletion.Failed). The key keeps its old value,
// and reads and deletes go on being served.
const (
	respOOM = "OOM out of memory: the table's arena is full"
	mcOOM   = "SERVER_ERROR out of memory"
)

// pmeta carries the per-request reply context from submit to completion.
type pmeta struct {
	key  []byte // mc VALUE lines echo the key; aliases the read buffer
	kind uint8
}

// worker is the table state a wire batch computes with: a table handle (its
// ring, arena writer and pin, and metric shard), the batch's reply contexts
// and value scratch. All of it is dead once the batch drains, so the server
// pools workers and a connection borrows one per batch (Server.borrow).
type worker struct {
	h    *idramhit.Handle
	cn   *conn   // the borrower, whose wbuf the completions append to
	vbuf []byte  // encoded flags+payload records, stable until the drain
	meta []pmeta // submit-order reply contexts
	mi   int     // completion cursor into meta
}

// conn is one client connection; it holds a worker only during a wire batch.
type conn struct {
	s    *Server
	c    net.Conn
	wk   *worker // borrowed for the open wire batch; nil between batches
	wbuf []byte  // replies accumulated for the open wire batch
	rcap int     // the protocol reader's capacity, as read_buffer_bytes counts it
}

// A protocol is one wire codec's part of the serve loop: a reader that parses
// in place, the dispatch of one request and the reply to a parse error.
type protocol interface {
	Buffer() *readbuf.Buffer
	Release()
	// next parses the next request and dispatches it; false closes the
	// connection (quit, end of stream).
	next(cn *conn) (bool, error)
	// parseError appends the reply to a parse error and reports whether the
	// stream is still framed, so that the connection goes on.
	parseError(cn *conn, err error) bool
}

// serve is the connection loop: the requests in the read buffer are parsed
// and dispatched into one wire batch, which ends before every socket read
// (Read) and at a batch cap. The read buffer, which the batch's keys and
// values alias, is released only at a frame boundary after the batch ended.
func (cn *conn) serve(p protocol) {
	b := p.Buffer()
	for {
		if !b.Buffered() || cn.batchFull(b.Used()) {
			if cn.flush() != nil {
				return
			}
			p.Release()
			cn.setReadCap(b.Cap())
		}
		more, err := p.next(cn)
		if err != nil && err != io.EOF {
			cn.barrier()
			more = p.parseError(cn, err)
		}
		if !more {
			cn.flush()
			return
		}
	}
}

// Read is the protocol reader's source. It ends the wire batch before every
// socket read: a read can block, and neither the replies of complete requests
// nor a pooled worker may wait for the rest of a client's frame.
func (cn *conn) Read(p []byte) (int, error) {
	if err := cn.flush(); err != nil {
		return 0, err
	}
	return cn.c.Read(p)
}

// record layout: 4-byte little-endian flags, then the payload.

func appendRecord(dst []byte, flags uint32, payload []byte) []byte {
	dst = append(dst, byte(flags), byte(flags>>8), byte(flags>>16), byte(flags>>24))
	return append(dst, payload...)
}

// splitRecord is appendRecord's inverse. Every record the server stores was
// built by appendRecord (SET, and INCR/DECR's rewrite), so none is shorter
// than its flags.
func splitRecord(rec []byte) (flags uint32, payload []byte) {
	return uint32(rec[0]) | uint32(rec[1])<<8 | uint32(rec[2])<<16 | uint32(rec[3])<<24,
		rec[4:]
}

// parseUint parses a non-empty decimal uint64, rejecting junk and overflow.
func parseUint(b []byte) (uint64, bool) {
	if len(b) == 0 {
		return 0, false
	}
	var n uint64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		d := uint64(c - '0')
		if n > (1<<64-1-d)/10 {
			return 0, false
		}
		n = n*10 + d
	}
	return n, true
}

// worker returns the open batch's worker, borrowing one for a new batch.
func (cn *conn) worker() *worker {
	if cn.wk == nil {
		cn.wk = cn.s.borrow()
		cn.wk.cn = cn
	}
	return cn.wk
}

// submit enters one Get/Put/Delete into the batch's byte pipeline; its reply
// is appended at completion, possibly after more submissions. key/val must
// stay valid until the batch drains (they alias the protocol reader's buffer
// and vbuf, both of which are released at the batch's end).
func (cn *conn) submit(op table.Op, kind uint8, key, val []byte) {
	wk := cn.worker()
	wk.meta = append(wk.meta, pmeta{kind: kind, key: key})
	wk.h.SubmitBytes(op, uint64(len(wk.meta)-1), key, val)
}

// record encodes a value into the batch's scratch, where it stays until the
// batch drains.
func (cn *conn) record(flags uint32, payload []byte) []byte {
	wk := cn.worker()
	start := len(wk.vbuf)
	wk.vbuf = appendRecord(wk.vbuf, flags, payload)
	return wk.vbuf[start:]
}

// complete is the byte pipeline's completion callback: it consumes the next
// meta entry and appends its wire reply to the borrower's wbuf.
func (wk *worker) complete(cc idramhit.ByteCompletion) {
	cn, m := wk.cn, &wk.meta[wk.mi]
	wk.mi++
	switch m.kind {
	case kRespGet:
		if cc.Found {
			_, payload := splitRecord(cc.Value)
			cn.wbuf = resp.AppendBulk(cn.wbuf, payload)
		} else {
			cn.wbuf = resp.AppendNil(cn.wbuf)
		}
	case kRespSet:
		if cc.Failed {
			cn.wbuf = resp.AppendError(cn.wbuf, respOOM)
		} else {
			cn.wbuf = resp.AppendSimple(cn.wbuf, "OK")
		}
	case kRespDel:
		n := int64(0)
		if cc.Found {
			n = 1
		}
		cn.wbuf = resp.AppendInt(cn.wbuf, n)
	case kMcGet, kMcGetLast:
		if cc.Found {
			flags, payload := splitRecord(cc.Value)
			cn.wbuf = mctext.AppendValue(cn.wbuf, m.key, flags, payload)
		}
		if m.kind == kMcGetLast {
			cn.wbuf = mctext.AppendEnd(cn.wbuf)
		}
	case kMcSet:
		if cc.Failed {
			cn.wbuf = mctext.AppendLine(cn.wbuf, mcOOM)
		} else {
			cn.wbuf = mctext.AppendLine(cn.wbuf, "STORED")
		}
	case kMcDel:
		if cc.Found {
			cn.wbuf = mctext.AppendLine(cn.wbuf, "DELETED")
		} else {
			cn.wbuf = mctext.AppendLine(cn.wbuf, "NOT_FOUND")
		}
	default: // kMcSetQuiet, kMcDelQuiet: noreply
	}
}

// barrier drains the pipeline so a synchronous reply (PING, INCR, a
// protocol error) is appended after every earlier request's reply — the
// total order the wire demands.
func (cn *conn) barrier() {
	if cn.wk != nil && cn.wk.h.PendingBytes() > 0 {
		cn.wk.h.FlushBytes()
	}
}

// flush ends the wire batch: it drains the pipeline, returns the worker to
// the pool and writes the accumulated replies in one syscall. After it
// returns, nothing references the read buffer. Every batch ends in
// FlushBytes, which publishes the handle's metrics, so a scrape after a batch
// of synchronous INCRs is exact too.
func (cn *conn) flush() error {
	if wk := cn.wk; wk != nil {
		wk.h.FlushBytes()
		wk.meta, wk.mi, wk.vbuf, wk.cn = wk.meta[:0], 0, wk.vbuf[:0], nil
		cn.s.giveBack(wk)
		cn.wk = nil
	}
	if len(cn.wbuf) == 0 {
		return nil
	}
	_, err := cn.c.Write(cn.wbuf)
	cn.wbuf = cn.wbuf[:0]
	return err
}

// setReadCap records the reader's capacity in read_buffer_bytes: one atomic
// add when it changed, and a last one (to 0) when the connection ends.
func (cn *conn) setReadCap(n int) {
	if n != cn.rcap {
		cn.s.readBuf.Add(int64(n - cn.rcap))
		cn.rcap = n
	}
}

// Batch caps. Crossing any of them forces an early batch flush (and read
// buffer release at the call site). wbufHighWater alone is not enough: a
// write-heavy pipelined stream (memcached noreply sets, RESP SETs whose
// reply is a 5-byte +OK) appends almost nothing to wbuf while the held
// input, vbuf and meta grow by ~request size per request — without an
// input-side cap that is a remotely triggerable OOM.
const (
	// wbufHighWater caps reply accumulation mid-batch (a client that
	// pipelines without reading would otherwise grow wbuf unboundedly).
	wbufHighWater = 64 << 10
	// inputHighWater caps parse-side accumulation: the request bytes the
	// batch holds in the read buffer plus the encoded-value scratch (vbuf).
	inputHighWater = 4 << 20
	// batchMaxOps caps the meta queue (requests per wire batch).
	batchMaxOps = 4096
)

// batchFull reports whether the current wire batch crossed a reply-side or
// input-side cap and must flush before parsing more. held is the bytes the
// batch holds in the read buffer.
func (cn *conn) batchFull(held int) bool {
	if wk := cn.wk; wk != nil && (len(wk.meta) >= batchMaxOps || held+len(wk.vbuf) >= inputHighWater) {
		return true
	}
	return len(cn.wbuf) >= wbufHighWater || held >= inputHighWater
}

// incr is the shared INCR/DECR core: atomically applies delta (subtracting
// when negative is set, clamped at zero memcached-style) to the record's
// numeric payload, preserving flags. It runs synchronously, after a barrier
// that keeps the reply stream request-ordered (the byte pipeline excludes
// Upsert). Everything is decided inside Mutate, on the record being
// replaced: a present non-numeric record is left as it is and reported as
// not numeric, and an absent key is created from zero when create is set
// (RESP: redis treats missing as "0") and otherwise left absent and reported
// as not found (memcached). stored is false when the new value could not be
// stored (the table's arena is full); the key then keeps its old value.
func (cn *conn) incr(key []byte, create bool, delta uint64, negative bool) (n uint64, found, numeric, stored bool) {
	cn.barrier()
	var scratch [28]byte // 4 flags + 20 digits; engine copies during Mutate
	_, stored = cn.worker().h.UpsertBytes(key, func(old []byte, present bool) ([]byte, bool) {
		var flags uint32
		var cur uint64
		found, numeric = present || create, create
		if present {
			var pay []byte
			flags, pay = splitRecord(old)
			cur, numeric = parseUint(pay)
		}
		if !numeric {
			n = 0
			return nil, false
		}
		switch {
		case !negative:
			n = cur + delta // wraps at 2^64, like memcached
		case delta > cur:
			n = 0 // memcached decr clamps at zero
		default:
			n = cur - delta
		}
		return strconv.AppendUint(appendRecord(scratch[:0], flags, nil), n, 10), true
	})
	return n, found, numeric, stored
}
