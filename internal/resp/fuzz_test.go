package resp

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"dramhit/internal/readbuf"
)

// chunkReader yields at most n bytes per Read, forcing frames to straddle
// Read boundaries at every offset congruent to the chunk size.
type chunkReader struct {
	b []byte
	n int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if len(c.b) == 0 {
		return 0, io.EOF
	}
	n := c.n
	if n > len(c.b) {
		n = len(c.b)
	}
	if n > len(p) {
		n = len(p)
	}
	copy(p, c.b[:n])
	c.b = c.b[n:]
	return n, nil
}

// parseAll drains data through the reader, collecting commands until an
// error; it bounds total retained bytes to prove no over-allocation.
func parseAll(t *testing.T, r *Reader, limit int) (cmds [][]string, firstErr error) {
	t.Helper()
	retained := 0
	for {
		cmd, err := r.ReadCommand()
		if err != nil {
			return cmds, err
		}
		var parts []string
		for _, a := range cmd.Args {
			parts = append(parts, string(a))
			retained += len(a)
		}
		cmds = append(cmds, parts)
		if retained > limit {
			t.Fatalf("parser retained %d bytes from a %d-byte input", retained, limit)
		}
	}
}

// fuzzBuf is the fuzz readers' buffer size. Short inputs cross its end,
// relocate and grow it, as inputs past 64 KiB do with readbuf.Size. The
// fuzzer re-runs every new interesting input thousands of times to minimize
// it, and at a millisecond per run the 64 KiB inputs that crossed the
// production buffer held both workers in minimization for most of a run.
const fuzzBuf = 256

func newFuzzReader(src io.Reader) *Reader { return &Reader{b: readbuf.New(src, fuzzBuf)} }

// FuzzRESPParse is the protocol robustness target: arbitrary bytes must
// never panic the parser, never make it allocate past its limits, and must
// parse identically whether the input arrives whole or one byte at a time.
func FuzzRESPParse(f *testing.F) {
	// Well-formed seeds.
	f.Add([]byte("*3\r\n$3\r\nSET\r\n$3\r\nfoo\r\n$3\r\nbar\r\n"))
	f.Add([]byte("*2\r\n$3\r\nGET\r\n$3\r\nfoo\r\n*1\r\n$4\r\nPING\r\n"))
	f.Add([]byte("PING\r\nSET foo bar\r\nGET foo\r\n"))
	// Frames that straddle read boundaries (exercised for every input by
	// the chunked re-parse below, seeded explicitly for corpus coverage).
	f.Add([]byte("*2\r\n$3\r\nDEL\r\n$26\r\nabcdefghijklmnopqrstuvwxyz\r\n"))
	// Oversized bulk lengths: must fail cleanly, not allocate.
	f.Add([]byte("*2\r\n$3\r\nGET\r\n$1099511627776\r\nx\r\n"))
	f.Add([]byte("$999999999999999999999999\r\n"))
	f.Add([]byte("*99999999\r\n"))
	// Bare \n everywhere.
	f.Add([]byte("PING\nGET foo\n"))
	f.Add([]byte("*1\n$4\nPING\n"))
	f.Add([]byte("\n\n\n\n\n"))
	// Pathological fragments.
	f.Add([]byte("*"))
	f.Add([]byte("*2\r\n$3\r\nGE"))
	f.Add([]byte("*1\r\n$-1\r\n"))
	f.Add([]byte("*-1\r\n*0\r\nPING\r\n"))
	f.Add([]byte("*1\r\n:5\r\n"))
	f.Add(bytes.Repeat([]byte("\x00"), 64))
	// Frames that straddle the end of the fuzz reader's buffer: a bulk
	// across it, a run of small commands across it, an inline line across
	// it, and a value larger than the buffer.
	f.Add(appendCmd(nil, []byte("SET"), []byte("k"), bytes.Repeat([]byte("v"), fuzzBuf-30)))
	f.Add(bytes.Repeat([]byte("*2\r\n$3\r\nGET\r\n$5\r\nkey-1\r\n"), fuzzBuf/20))
	f.Add([]byte(strings.Repeat("PING ", fuzzBuf/4) + "\r\nPING\r\n"))
	f.Add(appendCmd(nil, []byte("SET"), []byte("k"), bytes.Repeat([]byte("v"), 3*fuzzBuf/2)))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 16*fuzzBuf {
			data = data[:16*fuzzBuf] // keep the byte-at-a-time re-parse affordable
		}
		// Whole-buffer parse: must not panic; retained bytes bounded by a
		// small multiple of the input (arena holds only parsed args).
		whole, wholeErr := parseAll(t, newFuzzReader(bytes.NewReader(data)), len(data)+16)

		// Byte-at-a-time parse must agree exactly: same commands, and a
		// clean EOF on one side is a clean EOF on the other. (Error values
		// themselves may differ in message, not in presence.)
		split, splitErr := parseAll(t, newFuzzReader(&chunkReader{b: data, n: 1}), len(data)+16)
		if len(whole) != len(split) {
			t.Fatalf("whole parse found %d commands, split parse %d", len(whole), len(split))
		}
		for i := range whole {
			if len(whole[i]) != len(split[i]) {
				t.Fatalf("command %d arity differs: %q vs %q", i, whole[i], split[i])
			}
			for j := range whole[i] {
				if whole[i][j] != split[i][j] {
					t.Fatalf("command %d arg %d differs: %q vs %q", i, j, whole[i][j], split[i][j])
				}
			}
		}
		if (wholeErr == io.EOF) != (splitErr == io.EOF) {
			t.Fatalf("EOF cleanliness differs: whole=%v split=%v", wholeErr, splitErr)
		}
	})
}
