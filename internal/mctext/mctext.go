// Package mctext implements the server side of the memcached text protocol
// subset a hash-table front end needs: retrieval (get/gets), storage (set),
// deletion (delete) and arithmetic (incr/decr), with noreply support.
//
// Like internal/resp, the reader is incremental (frames straddle Read
// boundaries), allocation-bounded (the <bytes> field of a storage command is
// validated against MaxData, and the read buffer grows only as the bytes
// arrive), and parses in place: keys and data alias the read buffer
// (internal/readbuf) and stay valid across ReadRequest calls until Release,
// so pipelined commands batch into one table flush.
//
// Protocol reference: the memcached source distribution's doc/protocol.txt.
// Error replies follow it: "ERROR\r\n" for an unknown command,
// "CLIENT_ERROR <msg>\r\n" for a malformed known command.
package mctext

import (
	"bytes"
	"errors"
	"io"
	"strconv"

	"dramhit/internal/readbuf"
)

// Limits. Real memcached caps keys at 250 bytes and values at 1 MB by
// default; the same numbers are kept here so fixtures captured against a
// real server transfer.
const (
	// MaxKey bounds one key's byte length.
	MaxKey = 250
	// MaxData bounds a storage command's data block.
	MaxData = 1 << 20
	// MaxKeys bounds the key count of one get request.
	MaxKeys = 256
	// MaxLine bounds one command line (terminator included). Sized so a
	// protocol-legal get of MaxKeys keys at MaxKey bytes each fits; a smaller
	// bound would sever clients real memcached accepts.
	MaxLine = MaxKeys*(MaxKey+1) + 16
)

// Errors for protocol violations. ErrBadCommand maps to "ERROR" (unknown
// verb, connection can continue); the others are client errors that leave
// framing undefined, so the server replies CLIENT_ERROR and closes.
var (
	ErrBadCommand  = errors.New("mctext: unknown command")
	ErrBadLine     = errors.New("mctext: malformed command line")
	ErrKeyTooLong  = errors.New("mctext: key exceeds limit")
	ErrDataTooLong = errors.New("mctext: data block exceeds limit")
	ErrLineTooLong = errors.New("mctext: command line exceeds limit")
	ErrBadData     = errors.New("mctext: data block not terminated")
)

// Verb is the parsed command kind.
type Verb uint8

// The supported verbs.
const (
	Get Verb = iota
	Gets
	Set
	Delete
	Incr
	Decr
	Version
	Quit
)

// Request is one parsed client request. Keys, Key and Data alias the
// Reader's buffer: valid until Release.
type Request struct {
	Verb Verb
	// Keys holds the key list of a get/gets; Key the single key otherwise.
	Keys [][]byte
	Key  []byte
	// Flags and Exptime are stored verbatim (set); Data is the value block.
	Flags   uint32
	Exptime int64
	Data    []byte
	// Delta is the incr/decr operand.
	Delta uint64
	// NoReply suppresses the success reply (set/delete/incr/decr).
	NoReply bool
}

// Reader incrementally parses requests from a stream.
type Reader struct {
	b    readbuf.Buffer
	keys [][]byte // field headers of the requests returned since Release
	at   int      // bytes of the line in progress searched for '\n'
}

// NewReader returns a reader that reads r through its own buffer.
func NewReader(r io.Reader) *Reader {
	return &Reader{b: readbuf.New(r, readbuf.Size)}
}

// Release invalidates every Request returned since the previous Release and
// recycles the buffer space they held.
func (r *Reader) Release() {
	r.b.Release()
	clear(r.keys)
	r.keys = r.keys[:0]
}

// Buffered reports whether further request bytes are already buffered.
func (r *Reader) Buffered() bool { return r.b.Buffered() }

// Buffer returns the reader's buffer, whose Cap a memory gauge reads.
func (r *Reader) Buffer() *readbuf.Buffer { return &r.b }

// fields appends the fields of line to out, at most MaxKeys+2 of them: one
// more than the longest legal line has. memcached is strict (fields are
// space-separated, empty fields are protocol errors), but a tolerant split
// keeps the parser total. The subslices alias line.
func fields(line []byte, out [][]byte) [][]byte {
	for i, n := 0, 0; i < len(line) && n < MaxKeys+2; {
		for i < len(line) && line[i] == ' ' {
			i++
		}
		start := i
		for i < len(line) && line[i] != ' ' {
			i++
		}
		if i > start {
			out = append(out, line[start:i:i])
			n++
		}
	}
	return out
}

func parseUint(b []byte, bits int) (uint64, error) {
	if len(b) == 0 {
		return 0, ErrBadLine
	}
	var n uint64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, ErrBadLine
		}
		d := uint64(c - '0')
		if n > (^uint64(0)-d)/10 {
			return 0, ErrBadLine
		}
		n = n*10 + d
	}
	if bits < 64 && n >= 1<<uint(bits) {
		return 0, ErrBadLine
	}
	return n, nil
}

// verbOf resolves a verb token without allocating, with the least and the
// most fields its line may have: <key>* for get and gets, <key> <flags>
// <exptime> <bytes> [noreply] for set, <key> [noreply] for delete, <key>
// <delta> [noreply] for incr and decr, nothing for version and quit.
func verbOf(b []byte) (v Verb, lo, hi int, ok bool) {
	switch string(b) { // does not allocate: compiler-recognized comparison
	case "get":
		return Get, 2, MaxKeys + 1, true
	case "gets":
		return Gets, 2, MaxKeys + 1, true
	case "set":
		return Set, 5, 6, true
	case "delete":
		return Delete, 2, 3, true
	case "incr":
		return Incr, 3, 4, true
	case "decr":
		return Decr, 3, 4, true
	case "version":
		return Version, 1, 1, true
	case "quit":
		return Quit, 1, 1, true
	}
	return 0, 0, 0, false
}

// ReadRequest parses the next request. Unknown verbs return ErrBadCommand
// with the line consumed, so the server can reply "ERROR" and continue —
// matching real memcached, which resynchronizes on the next line.
func (r *Reader) ReadRequest() (Request, error) {
	for need := 1; ; {
		if err := r.b.Fill(need); err != nil {
			return Request{}, err
		}
		base := len(r.keys)
		req, n, more, err := r.parse(r.b.Bytes())
		r.b.Consume(n)
		if req.Keys == nil {
			r.keys = r.keys[:base]
		}
		if err != nil || n > 0 {
			r.at = 0
			return req, err
		}
		need = more
	}
}

// parse parses the request that starts p and returns its length, which on
// an error covers the command line. It returns n == 0 when p holds only a
// prefix of the request, with need the length p must reach before the parse
// can go further. The search for the line's end resumes at r.at.
func (r *Reader) parse(p []byte) (req Request, n, need int, err error) {
	end := bytes.IndexByte(p[r.at:min(len(p), MaxLine)], '\n')
	if end < 0 {
		if len(p) >= MaxLine {
			return Request{}, 0, 0, ErrLineTooLong
		}
		r.at = len(p)
		return Request{}, 0, len(p) + 1, nil
	}
	end += r.at
	n = end + 1
	base := len(r.keys)
	r.keys = fields(readbuf.TrimCR(p[:end]), r.keys)
	fs := r.keys[base:]
	if len(fs) == 0 {
		return Request{}, n, 0, ErrBadCommand // empty line: not resynchronizable input
	}
	verb, lo, hi, ok := verbOf(fs[0])
	if !ok {
		return Request{}, n, 0, ErrBadCommand
	}
	if len(fs) < lo || len(fs) > hi {
		return Request{}, n, 0, ErrBadLine
	}
	req.Verb = verb
	if verb == Get || verb == Gets {
		for _, k := range fs[1:] {
			if len(k) > MaxKey {
				return Request{}, n, 0, ErrKeyTooLong
			}
		}
		req.Keys = fs[1:]
		return req, n, 0, nil
	}
	if lo > 1 {
		if len(fs[1]) > MaxKey {
			return Request{}, n, 0, ErrKeyTooLong
		}
		req.Key = fs[1]
	}
	var flags, exp, nbytes uint64
	switch verb {
	case Set:
		if flags, err = parseUint(fs[2], 32); err == nil {
			if exp, err = parseUint(fs[3], 63); err == nil {
				if nbytes, err = parseUint(fs[4], 63); err == nil && nbytes > MaxData {
					err = ErrDataTooLong
				}
			}
		}
		req.Flags, req.Exptime = uint32(flags), int64(exp)
	case Incr, Decr:
		req.Delta, err = parseUint(fs[2], 64)
	}
	if err == nil && len(fs) == hi && hi > lo {
		if req.NoReply = string(fs[hi-1]) == "noreply"; !req.NoReply {
			err = ErrBadLine
		}
	}
	if err != nil {
		return Request{}, n, 0, err
	}
	if verb != Set {
		return req, n, 0, nil
	}
	// The data block: <bytes> bytes then CRLF, parsed where it lies.
	end = n + int(nbytes)
	next, more := readbuf.BlockEnd(p, end)
	if next == 0 {
		if more == 0 {
			err = ErrBadData
		}
		return Request{}, 0, more, err
	}
	req.Data = p[n:end:end]
	return req, next, 0, nil
}

// Reply append helpers.

// AppendValue appends one retrieval hit:
// VALUE <key> <flags> <bytes>\r\n<data>\r\n. The END terminator is appended
// separately (AppendEnd) after the last hit of the get.
func AppendValue(dst, key []byte, flags uint32, data []byte) []byte {
	dst = append(dst, "VALUE "...)
	dst = append(dst, key...)
	dst = append(dst, ' ')
	dst = strconv.AppendUint(dst, uint64(flags), 10)
	dst = append(dst, ' ')
	dst = strconv.AppendInt(dst, int64(len(data)), 10)
	dst = append(dst, '\r', '\n')
	dst = append(dst, data...)
	return append(dst, '\r', '\n')
}

// AppendEnd appends END\r\n.
func AppendEnd(dst []byte) []byte { return append(dst, "END\r\n"...) }

// AppendLine appends s\r\n (STORED, DELETED, NOT_FOUND, ERROR, VERSION ...).
func AppendLine(dst []byte, s string) []byte {
	dst = append(dst, s...)
	return append(dst, '\r', '\n')
}

// AppendUint appends an incr/decr result: <n>\r\n.
func AppendUint(dst []byte, n uint64) []byte {
	dst = strconv.AppendUint(dst, n, 10)
	return append(dst, '\r', '\n')
}

// AppendClientError appends CLIENT_ERROR <msg>\r\n.
func AppendClientError(dst []byte, msg string) []byte {
	dst = append(dst, "CLIENT_ERROR "...)
	dst = append(dst, msg...)
	return append(dst, '\r', '\n')
}
