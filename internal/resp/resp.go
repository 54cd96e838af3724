// Package resp implements the server side of the Redis serialization
// protocol (RESP2) request path: an incremental command reader that accepts
// both multibulk framing (`*N\r\n$len\r\n...`, what every client library and
// redis-cli send) and the inline form (`GET key\r\n`, what a human typing
// into netcat sends), plus allocation-free reply append helpers.
//
// The reader serves a network front end that feeds a batched hash-table
// pipeline. A frame may straddle any number of Read calls, and a parse that
// runs out of bytes resumes where it stopped. A length header is a claim:
// bulk lengths and argument counts above the limits are errors, and the
// buffer grows only as bytes arrive, so `$999999999999\r\n` costs an error,
// not 1 TB, and `$8388608\r\n` followed by ten bytes costs nothing. Parsed
// arguments alias the read buffer (internal/readbuf) until Release, so a
// caller may batch several pipelined commands before executing any of them.
package resp

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strconv"

	"dramhit/internal/readbuf"
)

// Protocol limits. They bound what a single command may make the server
// allocate; real redis defaults are far larger, but a hash-table front end
// has no business accepting 512 MB values.
const (
	// MaxArgs bounds the argument count of one command (multibulk `*N`).
	MaxArgs = 1024
	// MaxBulk bounds one argument's byte length (bulk `$N`).
	MaxBulk = 8 << 20
	// MaxInline bounds the byte length of one inline command line.
	MaxInline = 64 << 10
)

// Errors the reader returns for protocol violations. All of them leave the
// connection in an undefined framing state: the server should reply with an
// error and close, which is what real redis does for malformed multibulk.
var (
	ErrTooManyArgs = errors.New("resp: multibulk argument count exceeds limit")
	ErrBulkTooLong = errors.New("resp: bulk length exceeds limit")
	ErrLineTooLong = errors.New("resp: inline command exceeds limit")
	ErrBadFraming  = errors.New("resp: protocol error")
)

// Command is one parsed client command. Args[0] is the verb as sent (case
// preserved); the slices alias the Reader's buffer and stay valid until the
// next Release.
type Command struct {
	Args [][]byte
}

// Reader incrementally parses client commands from a stream.
type Reader struct {
	b    readbuf.Buffer
	args [][]byte // headers of every argument returned since Release
	// Where the parse of the frame in progress resumes, as an offset from its
	// start (the buffer may move between fills): a trickled frame costs O(n).
	at   int // inline: bytes searched for '\n'; multibulk: next header
	left int // multibulk arguments not parsed yet
}

// NewReader returns a reader that reads r through its own buffer.
func NewReader(r io.Reader) *Reader {
	return &Reader{b: readbuf.New(r, readbuf.Size)}
}

// Release invalidates every Command returned since the previous Release and
// recycles the buffer space they held. Call it once per batch, after the
// replies are rendered (argument bytes are dead by then).
func (r *Reader) Release() {
	r.b.Release()
	clear(r.args)
	r.args = r.args[:0]
}

// Buffered reports whether at least one byte of a further command is already
// buffered — the "more pipelined input is here, keep batching" signal.
func (r *Reader) Buffered() bool { return r.b.Buffered() }

// Buffer returns the reader's buffer, whose Cap a memory gauge reads.
func (r *Reader) Buffer() *readbuf.Buffer { return &r.b }

// ReadCommand parses the next command. io.EOF is returned only at a clean
// frame boundary; a frame cut mid-parse returns io.ErrUnexpectedEOF.
// Empty inline lines and empty multibulks (*0, *-1) are skipped iteratively
// — a megabyte of bare newlines costs reads, not stack.
func (r *Reader) ReadCommand() (Command, error) {
	for need := 1; ; {
		if err := r.b.Fill(need); err != nil {
			return Command{}, err
		}
		base, resumed := len(r.args), r.at > 0
		n, more, err := r.parse(r.b.Bytes(), base)
		if n > 0 && resumed {
			// The frame is whole, but the arguments parsed before the last
			// fill were dropped (they may alias a moved buffer): parse it again.
			r.args, r.at = r.args[:base], 0
			n, _, err = r.parse(r.b.Bytes(), base)
		}
		if n == 0 {
			r.args = r.args[:base]
			if err == nil {
				need = more
				continue
			}
		}
		r.at, r.left = 0, 0
		if err != nil {
			return Command{}, err
		}
		r.b.Consume(n)
		if len(r.args) > base {
			return Command{Args: r.args[base:]}, nil
		}
		need = 1 // an empty line or multibulk: skip it
	}
}

// parse appends the arguments of the command that starts p to r.args, whose
// first base entries belong to earlier commands, and returns its length. It
// returns n == 0 on an error, and when p holds only a prefix of the command,
// with need the length p must reach before the parse can go further; the
// next parse of the same frame resumes from r.at.
func (r *Reader) parse(p []byte, base int) (n, need int, err error) {
	if p[0] != '*' {
		// Inline command: whitespace-separated words on one line. An empty
		// line is skipped (redis does the same), letting netcat users hit
		// return harmlessly.
		end := bytes.IndexByte(p[r.at:min(len(p), MaxInline)], '\n')
		if end < 0 {
			if len(p) >= MaxInline {
				return 0, 0, ErrLineTooLong
			}
			r.at = len(p)
			return 0, len(p) + 1, nil
		}
		end += r.at
		line := readbuf.TrimCR(p[:end])
		for i := 0; i < len(line); {
			for i < len(line) && (line[i] == ' ' || line[i] == '\t') {
				i++
			}
			start := i
			for i < len(line) && line[i] != ' ' && line[i] != '\t' {
				i++
			}
			if i > start {
				if len(r.args)-base >= MaxArgs {
					return 0, 0, ErrTooManyArgs
				}
				r.args = append(r.args, line[start:i:i])
			}
		}
		return end + 1, 0, nil
	}

	// Multibulk: *N, then N bulk strings.
	i := r.at
	if i == 0 {
		argc, j, err := header(p, 0)
		if j == 0 || err != nil {
			return 0, len(p) + 1, err
		}
		if argc <= 0 {
			// *0 and *-1 are no-ops from a client; skip to the next command.
			if argc < -1 {
				return 0, 0, ErrBadFraming
			}
			return j, 0, nil
		}
		if argc > MaxArgs {
			return 0, 0, ErrTooManyArgs
		}
		i, r.left = j, int(argc)
	}
	for ; r.left > 0; r.left-- {
		if r.at = i; i == len(p) {
			return 0, i + 1, nil
		}
		if p[i] != '$' {
			return 0, 0, fmt.Errorf("%w: expected '$', got %q", ErrBadFraming, p[i])
		}
		blen, j, err := header(p, i)
		if j == 0 || err != nil {
			return 0, len(p) + 1, err
		}
		if blen < 0 {
			return 0, 0, ErrBadFraming // nil bulk inside a command
		}
		if blen > MaxBulk {
			return 0, 0, ErrBulkTooLong
		}
		// The body, then CRLF (LF alone tolerated).
		end := j + int(blen)
		if i, need = readbuf.BlockEnd(p, end); need > 0 {
			return 0, need, nil
		}
		if i == 0 {
			return 0, 0, fmt.Errorf("%w: bulk not terminated", ErrBadFraming)
		}
		r.args = append(r.args, p[j:end:end])
	}
	return i, 0, nil
}

// header parses the decimal line after the type byte p[at] ('*' or '$'): an
// optional '-', at most 12 digits (more are far beyond any limit), then CRLF
// or a bare LF. It returns the value with the offset just past the line; next
// is 0 while the line is not all buffered. Negative values are returned as-is
// (multibulk and bulk use -1 for nil).
func header(p []byte, at int) (v int64, next int, err error) {
	q, i := p[at+1:min(len(p), at+16)], 0
	if len(q) > 0 && q[0] == '-' {
		i = 1
	}
	digits := i
	for ; i < len(q) && q[i]-'0' <= 9; i++ {
		v = v*10 + int64(q[i]-'0')
	}
	nd := i - digits
	if i < len(q) && q[i] == '\r' {
		i++
	}
	switch {
	case nd > 12:
		return 0, 0, ErrBulkTooLong
	case i == len(q):
		return 0, 0, nil
	case q[i] != '\n' || nd == 0:
		return 0, 0, ErrBadFraming
	case digits == 1:
		v = -v
	}
	return v, at + i + 2, nil
}

// Reply append helpers: each appends one RESP reply to dst and returns the
// extended slice, so a connection can render a whole pipelined batch into
// one write buffer without intermediate allocation.

// AppendSimple appends +s\r\n.
func AppendSimple(dst []byte, s string) []byte {
	dst = append(dst, '+')
	dst = append(dst, s...)
	return append(dst, '\r', '\n')
}

// AppendError appends -msg\r\n with every CR and LF of msg replaced by a
// space, as redis does: an error may echo client bytes, and a line break in
// it would end the frame early and inject what follows as further replies.
func AppendError(dst []byte, msg string) []byte {
	dst = append(dst, '-')
	start := len(dst)
	dst = append(dst, msg...)
	for i, c := range dst[start:] {
		if c == '\r' || c == '\n' {
			dst[start+i] = ' '
		}
	}
	return append(dst, '\r', '\n')
}

// AppendInt appends :n\r\n.
func AppendInt(dst []byte, n int64) []byte {
	dst = append(dst, ':')
	dst = strconv.AppendInt(dst, n, 10)
	return append(dst, '\r', '\n')
}

// AppendBulk appends $len\r\nb\r\n.
func AppendBulk(dst []byte, b []byte) []byte {
	dst = append(dst, '$')
	dst = strconv.AppendInt(dst, int64(len(b)), 10)
	dst = append(dst, '\r', '\n')
	dst = append(dst, b...)
	return append(dst, '\r', '\n')
}

// AppendNil appends the nil bulk $-1\r\n.
func AppendNil(dst []byte) []byte {
	return append(dst, '$', '-', '1', '\r', '\n')
}

// AppendArrayHeader appends *n\r\n.
func AppendArrayHeader(dst []byte, n int) []byte {
	dst = append(dst, '*')
	dst = strconv.AppendInt(dst, int64(n), 10)
	return append(dst, '\r', '\n')
}
