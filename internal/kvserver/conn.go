package kvserver

import (
	"net"
	"time"

	idramhit "dramhit/internal/dramhit"
	"dramhit/internal/mctext"
	"dramhit/internal/obs"
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

// pmeta carries the per-request reply context from submit to completion.
type pmeta struct {
	key   []byte // mc VALUE lines echo the key; aliases the read buffer
	start int64  // latency stamp (0 when metrics are off)
	kind  uint8
}

// conn is the per-connection state shared by both protocol loops: one table
// handle (single-goroutine, like the connection), the reply write buffer,
// a batch-stable scratch buffer for encoded values, and the meta queue.
type conn struct {
	s *Server
	c net.Conn
	h *idramhit.Handle
	w *obs.Worker // pool shard (shared, atomic); nil when metrics are off

	wbuf []byte  // replies accumulated for the current wire batch
	vbuf []byte  // encoded flags+payload records, stable until batch flush
	meta []pmeta // submit-order reply contexts
	mi   int     // completion cursor into meta
	rcap int     // the protocol reader's capacity, as read_buffer_bytes counts it
}

func newConn(s *Server, c net.Conn) *conn {
	cn := &conn{s: s, c: c, h: s.tbl.NewHandle()}
	if s.pool != nil {
		cn.w = s.pool[int(s.connSeq.Add(1))%len(s.pool)]
	}
	cn.h.OnByteComplete(cn.complete)
	return cn
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

// submit enters one Get/Put/Delete into the handle's byte pipeline; its reply
// is appended at completion, possibly after more submissions. key/val must
// stay valid until the batch flush (they alias the protocol reader's buffer
// and vbuf, both of which are released at the batch's end).
func (cn *conn) submit(op table.Op, kind uint8, key, val []byte) {
	m := pmeta{kind: kind, key: key}
	if cn.w != nil {
		m.start = time.Now().UnixNano()
	}
	cn.meta = append(cn.meta, m)
	cn.h.SubmitBytes(op, uint64(len(cn.meta)-1), key, val)
}

// complete is the byte pipeline's completion callback: it consumes the next
// meta entry and appends its wire reply.
func (cn *conn) complete(cc idramhit.ByteCompletion) {
	m := &cn.meta[cn.mi]
	cn.mi++
	switch m.kind {
	case kRespGet:
		if cc.Found {
			_, payload := splitRecord(cc.Value)
			cn.wbuf = resp.AppendBulk(cn.wbuf, payload)
		} else {
			cn.wbuf = resp.AppendNil(cn.wbuf)
		}
	case kRespSet:
		cn.wbuf = resp.AppendSimple(cn.wbuf, "OK")
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
		cn.wbuf = mctext.AppendLine(cn.wbuf, "STORED")
	case kMcDel:
		if cc.Found {
			cn.wbuf = mctext.AppendLine(cn.wbuf, "DELETED")
		} else {
			cn.wbuf = mctext.AppendLine(cn.wbuf, "NOT_FOUND")
		}
	default: // kMcSetQuiet, kMcDelQuiet: noreply
	}
	if cn.w != nil {
		cn.countOp(cc.Op, cc.Found, m.start)
	}
}

// countOp records the request into the connection's pool shard: completion
// counters plus parse-to-completion latency in the per-op-class histogram.
// The shard is shared across connections; counters and histograms are
// atomic, so plain Add/Record compose.
func (cn *conn) countOp(op table.Op, found bool, start int64) {
	hit := found
	switch op {
	case table.Get:
		cn.w.Inc(obs.CGets)
	case table.Put:
		cn.w.Inc(obs.CPuts)
		hit = true
	case table.Upsert:
		cn.w.Inc(obs.CUpserts)
		hit = true
	default:
		cn.w.Inc(obs.CDeletes)
	}
	if found && (op == table.Get || op == table.Delete) {
		cn.w.Inc(obs.CHits)
	}
	if start != 0 {
		cn.w.Op[obs.OpClass(op, hit)].Record(uint64(time.Now().UnixNano() - start))
	}
}

// barrier drains the pipeline so a synchronous reply (PING, INCR, a
// protocol error) is appended after every earlier request's reply — the
// total order the wire demands.
func (cn *conn) barrier() {
	if cn.h.PendingBytes() > 0 {
		cn.h.FlushBytes()
	}
}

// flushWrite ends the wire batch: drains the pipeline, writes the
// accumulated replies in one syscall, and resets the batch-lifetime
// buffers. After it returns, nothing references the read buffer.
func (cn *conn) flushWrite() error {
	cn.barrier()
	cn.meta = cn.meta[:0]
	cn.mi = 0
	cn.vbuf = cn.vbuf[:0]
	if len(cn.wbuf) == 0 {
		return nil
	}
	_, err := cn.c.Write(cn.wbuf)
	cn.wbuf = cn.wbuf[:0]
	return err
}

// endBatch flushes the wire batch, releases the reader's buffer and, when
// its capacity changed, moves the read_buffer_bytes gauge by the difference.
func (cn *conn) endBatch(release func(), buf *readbuf.Buffer) error {
	if err := cn.flushWrite(); err != nil {
		return err
	}
	release()
	cn.setReadCap(buf.Cap())
	return nil
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
// input-side cap and must flush before parsing more. heldBytes is the
// protocol reader's ArenaBytes().
func (cn *conn) batchFull(heldBytes int) bool {
	return len(cn.wbuf) >= wbufHighWater ||
		heldBytes+len(cn.vbuf) >= inputHighWater ||
		len(cn.meta) >= batchMaxOps
}

// upsertNumeric is the shared INCR/DECR core: atomically applies delta
// (subtracting when negative is set, clamped at zero memcached-style) to
// the record's numeric payload, preserving flags. Everything is decided
// inside Mutate, on the record being replaced: a present non-numeric record
// is left as it is and reported as not numeric, and an absent key is
// created from zero when create is set (RESP: redis treats missing as "0")
// and otherwise left absent and reported as not found (memcached).
func (cn *conn) upsertNumeric(key []byte, create bool, delta uint64, negative bool) (n uint64, found, numeric bool) {
	var scratch [28]byte // 4 flags + 20 digits; engine copies during Mutate
	cn.h.UpsertBytes(key, func(old []byte, present bool) ([]byte, bool) {
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
		b := scratch[:0]
		b = appendRecord(b, flags, nil)
		return appendUintDec(b, n), true
	})
	return n, found, numeric
}

func appendUintDec(b []byte, n uint64) []byte {
	var tmp [20]byte
	i := len(tmp)
	for {
		i--
		tmp[i] = byte('0' + n%10)
		n /= 10
		if n == 0 {
			break
		}
	}
	return append(b, tmp[i:]...)
}
