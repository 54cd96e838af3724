package kvserver

import (
	"dramhit/internal/resp"
	"dramhit/internal/table"
)

// respProto is the RESP half of the serve loop. Protocol damage (bad
// framing, oversized bulk, cut frame) gets a best-effort error reply, then
// the connection is severed: the stream position is unrecoverable.
type respProto struct{ *resp.Reader }

func (respProto) parseError(cn *conn, err error) bool {
	cn.wbuf = resp.AppendError(cn.wbuf, "ERR Protocol error: "+err.Error())
	return false
}

func (p respProto) next(cn *conn) (bool, error) {
	cmd, err := p.ReadCommand()
	if err != nil {
		return false, err
	}
	name := cmd.Args[0]
	switch {
	case eqFold(name, "GET"):
		if len(cmd.Args) != 2 {
			return cn.respArity("get"), nil
		}
		cn.submit(table.Get, kRespGet, cmd.Args[1], nil)
	case eqFold(name, "SET"):
		if len(cmd.Args) != 3 {
			return cn.respArity("set"), nil
		}
		cn.submit(table.Put, kRespSet, cmd.Args[1], cn.record(0, cmd.Args[2]))
	case eqFold(name, "DEL"):
		if len(cmd.Args) != 2 {
			return cn.respArity("del"), nil
		}
		cn.submit(table.Delete, kRespDel, cmd.Args[1], nil)
	case eqFold(name, "INCR"):
		if len(cmd.Args) != 2 {
			return cn.respArity("incr"), nil
		}
		switch n, _, numeric, stored := cn.incr(cmd.Args[1], true, 1, false); {
		case !stored:
			cn.wbuf = resp.AppendError(cn.wbuf, respOOM)
		case numeric:
			cn.wbuf = resp.AppendInt(cn.wbuf, int64(n))
		default:
			cn.wbuf = resp.AppendError(cn.wbuf, "ERR value is not an integer or out of range")
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
		return false, nil
	default:
		cn.barrier()
		cn.wbuf = resp.AppendError(cn.wbuf, "ERR unknown command '"+string(name)+"'")
	}
	return true, nil
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
