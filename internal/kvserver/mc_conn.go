package kvserver

import (
	"errors"

	"dramhit/internal/mctext"
	"dramhit/internal/table"
)

// mcProto is the memcached-text half of the serve loop. An unknown verb
// resynchronizes ("ERROR", keep the connection); a structurally damaged
// stream gets a CLIENT_ERROR and is severed.
type mcProto struct{ *mctext.Reader }

func (mcProto) parseError(cn *conn, err error) bool {
	msg := err.Error()
	switch {
	case errors.Is(err, mctext.ErrBadCommand):
		cn.wbuf = mctext.AppendLine(cn.wbuf, "ERROR") // the reader consumed exactly that line
		return true
	case errors.Is(err, mctext.ErrBadData):
		msg = "bad data chunk"
	}
	cn.wbuf = mctext.AppendClientError(cn.wbuf, msg)
	return false
}

func (p mcProto) next(cn *conn) (bool, error) {
	req, err := p.ReadRequest()
	if err != nil {
		return false, err
	}
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
		kind := uint8(kMcSet)
		if req.NoReply {
			kind = kMcSetQuiet
		}
		cn.submit(table.Put, kind, req.Key, cn.record(req.Flags, req.Data))
	case mctext.Delete:
		kind := uint8(kMcDel)
		if req.NoReply {
			kind = kMcDelQuiet
		}
		cn.submit(table.Delete, kind, req.Key, nil)
	case mctext.Incr, mctext.Decr:
		// memcached incr/decr never creates the key.
		n, found, numeric, stored := cn.incr(req.Key, false, req.Delta, req.Verb == mctext.Decr)
		switch {
		case req.NoReply:
		case !stored:
			cn.wbuf = mctext.AppendLine(cn.wbuf, mcOOM)
		case !found:
			cn.wbuf = mctext.AppendLine(cn.wbuf, "NOT_FOUND")
		case !numeric:
			cn.wbuf = mctext.AppendClientError(cn.wbuf,
				"cannot increment or decrement non-numeric value")
		default:
			cn.wbuf = mctext.AppendUint(cn.wbuf, n)
		}
	case mctext.Version:
		cn.barrier()
		cn.wbuf = mctext.AppendLine(cn.wbuf, "VERSION dramhit-1.0")
	case mctext.Quit:
		return false, nil
	}
	return true, nil
}
