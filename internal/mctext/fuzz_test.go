package mctext

import (
	"bytes"
	"fmt"
	"io"
	"testing"

	"dramhit/internal/readbuf"
)

// chunkReader yields at most n bytes per Read (see internal/resp's twin).
type chunkReader struct {
	b []byte
	n int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if len(c.b) == 0 {
		return 0, io.EOF
	}
	n := min(c.n, len(c.b), len(p))
	copy(p, c.b[:n])
	c.b = c.b[n:]
	return n, nil
}

// summarize flattens a request for cross-parse comparison.
func summarize(req Request) []byte {
	var s []byte
	s = append(s, byte(req.Verb))
	for _, k := range req.Keys {
		s = append(s, k...)
		s = append(s, 0)
	}
	s = append(s, req.Key...)
	s = append(s, 0)
	s = append(s, req.Data...)
	if req.NoReply {
		s = append(s, 1)
	}
	return s
}

// fuzzBuf is the fuzz readers' buffer size: short inputs cross its end, as
// inputs past 64 KiB do with readbuf.Size, and stay cheap for the minimizer
// (see internal/resp's twin).
const fuzzBuf = 256

func newFuzzReader(src io.Reader) *Reader { return &Reader{b: readbuf.New(src, fuzzBuf)} }

// FuzzMemcachedParse: arbitrary bytes must never panic the parser or make it
// retain more than it read, and whole-buffer vs byte-at-a-time parses must
// agree. ErrBadCommand is resynchronizable, so parsing continues across it
// exactly as the server's connection loop does.
func FuzzMemcachedParse(f *testing.F) {
	f.Add([]byte("set k 0 0 5\r\nhello\r\nget k\r\n"))
	f.Add([]byte("get a b c\r\ngets a\r\n"))
	f.Add([]byte("set k 1 2 3 noreply\r\nabc\r\ndelete k noreply\r\n"))
	f.Add([]byte("incr k 1\r\ndecr k 18446744073709551615\r\n"))
	// Split-read shapes, oversized lengths, bare \n.
	f.Add([]byte("set k 0 0 1048577\r\n"))
	f.Add([]byte("set k 0 0 99999999999999999999\r\nx\r\n"))
	f.Add([]byte("get k\nset k 0 0 2\nhi\n"))
	f.Add([]byte("\n\n\n"))
	f.Add([]byte("set k 0 0 4\r\nab"))
	f.Add([]byte("version\r\nquit\r\n"))
	f.Add(bytes.Repeat([]byte{0}, 32))
	// Requests that straddle the end of the fuzz reader's buffer: a data
	// block across it, a run of small gets across it, a long get line
	// across it, and a data block larger than the buffer.
	f.Add(appendSet(nil, []byte("k"), bytes.Repeat([]byte("v"), fuzzBuf-16)))
	f.Add(bytes.Repeat([]byte("get key-1\r\n"), fuzzBuf/8))
	f.Add(fmt.Appendf(bytes.Repeat([]byte("get key-1\r\n"), 10), "get%s\r\n",
		bytes.Repeat([]byte(" key-2"), fuzzBuf/4)))
	f.Add(appendSet(nil, []byte("k"), bytes.Repeat([]byte("v"), 3*fuzzBuf/2)))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 16*fuzzBuf {
			data = data[:16*fuzzBuf]
		}
		parse := func(r *Reader) (reqs [][]byte, clean bool) {
			retained := 0
			for {
				req, err := r.ReadRequest()
				if err == ErrBadCommand {
					reqs = append(reqs, []byte{0xFF}) // marker, keep going
					continue
				}
				if err != nil {
					return reqs, err == io.EOF
				}
				s := summarize(req)
				retained += len(s)
				if retained > len(data)+64 {
					t.Fatalf("parser retained %d bytes from %d input bytes", retained, len(data))
				}
				reqs = append(reqs, s)
			}
		}
		whole, wholeClean := parse(newFuzzReader(bytes.NewReader(data)))
		split, splitClean := parse(newFuzzReader(&chunkReader{b: data, n: 1}))
		if len(whole) != len(split) || wholeClean != splitClean {
			t.Fatalf("parses disagree: %d/%v vs %d/%v requests", len(whole), wholeClean, len(split), splitClean)
		}
		for i := range whole {
			if !bytes.Equal(whole[i], split[i]) {
				t.Fatalf("request %d differs across read boundaries", i)
			}
		}
	})
}
