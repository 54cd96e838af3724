package kvserver

import (
	"io"
	"time"

	"dramhit/internal/resp"
	"dramhit/internal/table"
)

// serveRESP is the RESP connection loop: parse every fully-buffered command
// into the batch, flush (pipeline drain + one write syscall) when the input
// would block. The read buffer, which every parsed key and value aliases, is
// released only at batch boundaries, after the last reference to them died.
func (cn *conn) serveRESP() {
	r := resp.NewReader(cn.c)
	for {
		if !r.Buffered() && cn.endBatch(r.Release, r.Buffer()) != nil {
			return
		}
		cmd, err := r.ReadCommand()
		if err != nil {
			if err != io.EOF {
				// Protocol damage (bad framing, oversized bulk, cut frame):
				// best-effort error reply after pending replies, then sever —
				// the stream position is unrecoverable.
				cn.barrier()
				cn.wbuf = resp.AppendError(cn.wbuf, "ERR Protocol error: "+err.Error())
				cn.flushWrite()
			}
			return
		}
		if !cn.dispatchRESP(cmd) {
			cn.flushWrite()
			return
		}
		if cn.batchFull(r.ArenaBytes()) && cn.endBatch(r.Release, r.Buffer()) != nil {
			return
		}
	}
}

// dispatchRESP executes one command; false closes the connection (QUIT).
func (cn *conn) dispatchRESP(cmd resp.Command) bool {
	if len(cmd.Args) == 0 {
		return true
	}
	name := cmd.Args[0]
	switch {
	case eqFold(name, "GET"):
		if len(cmd.Args) != 2 {
			return cn.respArity("get")
		}
		cn.submit(table.Get, kRespGet, cmd.Args[1], nil)
	case eqFold(name, "SET"):
		if len(cmd.Args) != 3 {
			return cn.respArity("set")
		}
		start := len(cn.vbuf)
		cn.vbuf = appendRecord(cn.vbuf, 0, cmd.Args[2])
		cn.submit(table.Put, kRespSet, cmd.Args[1], cn.vbuf[start:])
	case eqFold(name, "DEL"):
		if len(cmd.Args) != 2 {
			return cn.respArity("del")
		}
		cn.submit(table.Delete, kRespDel, cmd.Args[1], nil)
	case eqFold(name, "INCR"):
		if len(cmd.Args) != 2 {
			return cn.respArity("incr")
		}
		// Read-modify-writes run synchronously (the byte pipeline excludes
		// Upsert); the barrier keeps the reply stream request-ordered.
		cn.barrier()
		var start int64
		if cn.w != nil {
			start = time.Now().UnixNano()
		}
		if n, _, numeric := cn.upsertNumeric(cmd.Args[1], true, 1, false); numeric {
			cn.wbuf = resp.AppendInt(cn.wbuf, int64(n))
		} else {
			cn.wbuf = resp.AppendError(cn.wbuf, "ERR value is not an integer or out of range")
		}
		if cn.w != nil {
			cn.countOp(table.Upsert, true, start)
		}
	case eqFold(name, "PING"):
		cn.barrier()
		if len(cmd.Args) == 2 {
			cn.wbuf = resp.AppendBulk(cn.wbuf, cmd.Args[1])
		} else {
			cn.wbuf = resp.AppendSimple(cn.wbuf, "PONG")
		}
	case eqFold(name, "QUIT"):
		cn.barrier()
		cn.wbuf = resp.AppendSimple(cn.wbuf, "OK")
		return false
	default:
		cn.barrier()
		cn.wbuf = resp.AppendError(cn.wbuf, "ERR unknown command '"+string(name)+"'")
	}
	return true
}

// respArity appends the redis wrong-arity error; the connection stays up.
func (cn *conn) respArity(name string) bool {
	cn.barrier()
	cn.wbuf = resp.AppendError(cn.wbuf, "ERR wrong number of arguments for '"+name+"' command")
	return true
}

// eqFold reports whether b equals the (uppercase) literal, ASCII
// case-insensitively, without allocating.
func eqFold(b []byte, upper string) bool {
	if len(b) != len(upper) {
		return false
	}
	for i := 0; i < len(b); i++ {
		c := b[i]
		if c >= 'a' && c <= 'z' {
			c -= 'a' - 'A'
		}
		if c != upper[i] {
			return false
		}
	}
	return true
}
