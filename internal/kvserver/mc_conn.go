package kvserver

import (
	"errors"
	"io"
	"time"

	"dramhit/internal/mctext"
	"dramhit/internal/table"
)

// serveMc is the memcached-text connection loop: same batch discipline as
// serveRESP. Unknown verbs resynchronize ("ERROR", keep the connection);
// structurally damaged streams get a CLIENT_ERROR and are severed.
func (cn *conn) serveMc() {
	r := mctext.NewReader(cn.c)
	for {
		if !r.Buffered() && cn.endBatch(r.Release, r.Buffer()) != nil {
			return
		}
		req, err := r.ReadRequest()
		if err != nil {
			if errors.Is(err, mctext.ErrBadCommand) {
				// The reader consumed exactly the offending line.
				cn.barrier()
				cn.wbuf = mctext.AppendLine(cn.wbuf, "ERROR")
				continue
			}
			if err != io.EOF {
				cn.barrier()
				cn.wbuf = mctext.AppendClientError(cn.wbuf, mcErrText(err))
				cn.flushWrite()
			}
			return
		}
		if !cn.dispatchMc(req) {
			cn.flushWrite()
			return
		}
		if cn.batchFull(r.ArenaBytes()) && cn.endBatch(r.Release, r.Buffer()) != nil {
			return
		}
	}
}

func mcErrText(err error) string {
	if errors.Is(err, mctext.ErrBadData) {
		return "bad data chunk"
	}
	return err.Error()
}

// dispatchMc executes one request; false closes the connection (quit).
func (cn *conn) dispatchMc(req mctext.Request) bool {
	switch req.Verb {
	case mctext.Get, mctext.Gets:
		// One pipeline submission per key; misses emit nothing and the last
		// key's completion appends the END terminator — completion order is
		// submission order, so END always lands after every VALUE block.
		for i, k := range req.Keys {
			kind := uint8(kMcGet)
			if i == len(req.Keys)-1 {
				kind = kMcGetLast
			}
			cn.submit(table.Get, kind, k, nil)
		}
	case mctext.Set:
		start := len(cn.vbuf)
		cn.vbuf = appendRecord(cn.vbuf, req.Flags, req.Data)
		kind := uint8(kMcSet)
		if req.NoReply {
			kind = kMcSetQuiet
		}
		cn.submit(table.Put, kind, req.Key, cn.vbuf[start:])
	case mctext.Delete:
		kind := uint8(kMcDel)
		if req.NoReply {
			kind = kMcDelQuiet
		}
		cn.submit(table.Delete, kind, req.Key, nil)
	case mctext.Incr, mctext.Decr:
		cn.barrier()
		var start int64
		if cn.w != nil {
			start = time.Now().UnixNano()
		}
		// memcached incr/decr never creates the key.
		n, found, numeric := cn.upsertNumeric(req.Key, false, req.Delta, req.Verb == mctext.Decr)
		switch {
		case req.NoReply:
		case !found:
			cn.wbuf = mctext.AppendLine(cn.wbuf, "NOT_FOUND")
		case !numeric:
			cn.wbuf = mctext.AppendClientError(cn.wbuf,
				"cannot increment or decrement non-numeric value")
		default:
			cn.wbuf = mctext.AppendUint(cn.wbuf, n)
		}
		if numeric && cn.w != nil {
			cn.countOp(table.Upsert, true, start)
		}
	case mctext.Version:
		cn.barrier()
		cn.wbuf = mctext.AppendLine(cn.wbuf, "VERSION dramhit-1.0")
	case mctext.Quit:
		return false
	}
	return true
}
