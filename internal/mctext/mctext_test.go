package mctext

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"dramhit/internal/readbuf"
)

func reader(in string) *Reader { return NewReader(strings.NewReader(in)) }

func TestSetGetDelete(t *testing.T) {
	r := reader("set counter 7 0 5\r\nhello\r\nget counter other\r\ndelete counter\r\n")

	req, err := r.ReadRequest()
	if err != nil {
		t.Fatal(err)
	}
	if req.Verb != Set || string(req.Key) != "counter" || req.Flags != 7 ||
		string(req.Data) != "hello" || req.NoReply {
		t.Fatalf("set parsed as %+v", req)
	}

	req, err = r.ReadRequest()
	if err != nil {
		t.Fatal(err)
	}
	if req.Verb != Get || len(req.Keys) != 2 ||
		string(req.Keys[0]) != "counter" || string(req.Keys[1]) != "other" {
		t.Fatalf("get parsed as %+v", req)
	}

	req, err = r.ReadRequest()
	if err != nil {
		t.Fatal(err)
	}
	if req.Verb != Delete || string(req.Key) != "counter" {
		t.Fatalf("delete parsed as %+v", req)
	}
}

func TestNoreplyAndArithmetic(t *testing.T) {
	r := reader("set k 0 0 1 noreply\r\nx\r\nincr k 41\r\ndecr k 1 noreply\r\nquit\r\n")
	req, _ := r.ReadRequest()
	if req.Verb != Set || !req.NoReply {
		t.Fatalf("set noreply parsed as %+v", req)
	}
	req, _ = r.ReadRequest()
	if req.Verb != Incr || req.Delta != 41 || req.NoReply || string(req.Key) != "k" {
		t.Fatalf("incr parsed as %+v", req)
	}
	req, _ = r.ReadRequest()
	if req.Verb != Decr || req.Delta != 1 || !req.NoReply {
		t.Fatalf("decr parsed as %+v", req)
	}
	req, _ = r.ReadRequest()
	if req.Verb != Quit {
		t.Fatalf("quit parsed as %+v", req)
	}
}

// TestDataBlockIsBinarySafe pins that the data block is length-delimited:
// CRLFs and command-looking text inside it are data, not protocol.
func TestDataBlockIsBinarySafe(t *testing.T) {
	data := "get x\r\nset y\r\n\x00\xff"
	r := reader("set k 0 0 " + itoa(len(data)) + "\r\n" + data + "\r\nget k\r\n")
	req, err := r.ReadRequest()
	if err != nil {
		t.Fatal(err)
	}
	if string(req.Data) != data {
		t.Fatalf("data block mangled: %q", req.Data)
	}
	if req2, err := r.ReadRequest(); err != nil || req2.Verb != Get {
		t.Fatalf("frame after binary data: %+v, %v", req2, err)
	}
}

func TestSplitReads(t *testing.T) {
	in := "set k 1 0 5\r\nworld\r\nget k\r\nincr k 2\r\n"
	parse := func(r io.Reader) []Request {
		rd := NewReader(r)
		var out []Request
		for {
			req, err := rd.ReadRequest()
			if err == io.EOF {
				return out
			}
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, req)
		}
	}
	whole := parse(strings.NewReader(in))
	split := parse(iotest.OneByteReader(strings.NewReader(in)))
	if len(whole) != 3 || len(split) != 3 {
		t.Fatalf("whole=%d split=%d requests", len(whole), len(split))
	}
	if string(split[0].Data) != "world" || string(split[1].Keys[0]) != "k" || split[2].Delta != 2 {
		t.Fatalf("split parse diverged: %+v", split)
	}
}

func TestErrors(t *testing.T) {
	cases := map[string]error{
		"bogus foo\r\n":                   ErrBadCommand,
		"flush_all\r\n":                   ErrBadCommand, // unsupported verb
		"set k 0 0\r\n":                   ErrBadLine,    // missing <bytes>
		"set k 0 0 x\r\n":                 ErrBadLine,    // junk <bytes>
		"set k 0 0 2 yesreply\r\nxx\r\n":  ErrBadLine,
		"set k 0 0 9999999999\r\n":        ErrDataTooLong,
		"incr k\r\n":                      ErrBadLine,
		"incr k 18446744073709551616\r\n": ErrBadLine, // overflow
		"get\r\n":                         ErrBadLine,
		"set " + strings.Repeat("k", 251) + " 0 0 1\r\nx\r\n": ErrKeyTooLong,
		"set k 0 0 3\r\nxxxx\r\n":                             ErrBadData, // block longer than declared
	}
	for in, want := range cases {
		_, err := reader(in).ReadRequest()
		if !errors.Is(err, want) {
			t.Errorf("%q: err = %v, want %v", in, err, want)
		}
	}
}

// TestErrorResync pins the memcached behavior the server relies on: an
// unknown verb consumes exactly its line, so parsing can continue.
func TestErrorResync(t *testing.T) {
	r := reader("bogus\r\nversion\r\n")
	if _, err := r.ReadRequest(); !errors.Is(err, ErrBadCommand) {
		t.Fatalf("want ErrBadCommand, got %v", err)
	}
	req, err := r.ReadRequest()
	if err != nil || req.Verb != Version {
		t.Fatalf("resync failed: %+v, %v", req, err)
	}
}

func TestAppendHelpers(t *testing.T) {
	var b []byte
	b = AppendValue(b, []byte("k"), 7, []byte("vv"))
	b = AppendEnd(b)
	b = AppendLine(b, "STORED")
	b = AppendUint(b, 42)
	b = AppendClientError(b, "bad data chunk")
	want := "VALUE k 7 2\r\nvv\r\nEND\r\nSTORED\r\n42\r\nCLIENT_ERROR bad data chunk\r\n"
	if string(b) != want {
		t.Fatalf("got %q, want %q", b, want)
	}
}

func itoa(n int) string { return strconv.Itoa(n) }

// appendSet appends one set request with its data block.
func appendSet(b, key, data []byte) []byte {
	b = fmt.Appendf(b, "set %s 0 0 %d\r\n", key, len(data))
	b = append(b, data...)
	return append(b, '\r', '\n')
}

// TestArgsExactAcrossBuffers: 600 KiB of sets, data blocks up to MaxData of
// random bytes with a get of two keys between them, read whole and in
// 4,093-byte reads, released every request, every 7 requests or never.
// Requests straddle the buffer's end, blocks outgrow it, and the last batch
// is ten times its size; every key and block a batch holds must still be
// byte-exact when the batch ends.
func TestArgsExactAcrossBuffers(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var in []byte
	var want [][]byte // key, data per request; a get's data is its second key
	for len(in) < 600<<10 {
		n := rng.Intn(200)
		if rng.Intn(8) == 0 {
			n = rng.Intn(MaxData)
		}
		data := make([]byte, n)
		rng.Read(data)
		key := []byte(fmt.Sprintf("key-%d", len(want)/2))
		if rng.Intn(3) == 0 {
			in = fmt.Appendf(in, "get %s other-%s\r\n", key, key)
			want = append(want, key, []byte("other-"+string(key)))
			continue
		}
		in = appendSet(in, key, data)
		want = append(want, key, data)
	}
	reqs := len(want) / 2
	for _, batch := range []int{1, 7, reqs} {
		for _, chunk := range []int{len(in), 4093} {
			rd := NewReader(&chunkReader{b: in, n: chunk})
			var held []Request
			for i := 0; i < reqs; i++ {
				req, err := rd.ReadRequest()
				if err != nil {
					t.Fatalf("batch %d, chunk %d: request %d: %v", batch, chunk, i, err)
				}
				if held = append(held, req); len(held) < batch && i < reqs-1 {
					continue
				}
				for j, r := range held {
					k := i + 1 - len(held) + j
					key, data := r.Key, r.Data
					if r.Verb == Get {
						key, data = r.Keys[0], r.Keys[1]
					}
					if !bytes.Equal(key, want[2*k]) || !bytes.Equal(data, want[2*k+1]) {
						t.Fatalf("batch %d, chunk %d: request %d changed before Release", batch, chunk, k)
					}
				}
				held = held[:0]
				rd.Release()
			}
			if _, err := rd.ReadRequest(); err != io.EOF {
				t.Fatalf("batch %d, chunk %d: after the last request: %v", batch, chunk, err)
			}
		}
	}
}

// TestZeroAllocWithRelocations: batches that straddle the buffer's end move
// their unparsed tail to a spare, and Release recycles the buffer they left.
// After warm-up no run allocates, and the reader holds exactly two buffers.
func TestZeroAllocWithRelocations(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	var in []byte
	data := bytes.Repeat([]byte("v"), 700)
	for i := 0; i < 400; i++ {
		in = appendSet(in, []byte(fmt.Sprintf("key-%d", i)), data)
		in = fmt.Appendf(in, "get key-%d a b c d e f g h i j\r\n", i)
	}
	src := &chunkReader{}
	rd := NewReader(src)
	run := func() {
		src.b, src.n = in, 16<<10
		for n := 1; ; n++ {
			if _, err := rd.ReadRequest(); err != nil {
				if err != io.EOF {
					t.Fatal(err)
				}
				break
			}
			if n%50 == 0 {
				rd.Release()
			}
		}
		rd.Release()
	}
	run()
	run()
	if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
		t.Fatalf("steady-state parse with relocations allocates %v/run", allocs)
	}
	if got := rd.Buffer().Cap(); got != 2*readbuf.Size {
		t.Fatalf("reader holds %d bytes of buffers, want two of %d", got, readbuf.Size)
	}
}

// burstReader hands out one burst per Read, the way a socket delivers one
// pipelined burst per read call, and counts the calls.
type burstReader struct {
	bursts [][]byte
	reads  int
}

func (b *burstReader) Read(p []byte) (int, error) {
	b.reads++
	if len(b.bursts) == 0 {
		return 0, io.EOF
	}
	n := copy(p, b.bursts[0])
	if b.bursts[0] = b.bursts[0][n:]; len(b.bursts[0]) == 0 {
		b.bursts = b.bursts[1:]
	}
	return n, nil
}

// TestBurstAfterReleaseIsOneRead: a reader whose input is drained releases
// and reads the next burst into the front of its buffer, so every 40 KiB
// burst is consumed with one Read, as a connection loop consumes a pipeline.
func TestBurstAfterReleaseIsOneRead(t *testing.T) {
	const bursts, perBurst = 8, 40
	src := &burstReader{}
	data := bytes.Repeat([]byte("v"), 1000)
	for b := 0; b < bursts; b++ {
		var burst []byte
		for i := 0; i < perBurst; i++ {
			burst = appendSet(burst, []byte(fmt.Sprintf("k%d-%d", b, i)), data)
		}
		src.bursts = append(src.bursts, burst)
	}
	rd := NewReader(src)
	for n := 0; ; n++ {
		if !rd.Buffered() {
			rd.Release()
		}
		if _, err := rd.ReadRequest(); err == io.EOF {
			if n != bursts*perBurst {
				t.Fatalf("parsed %d requests, want %d", n, bursts*perBurst)
			}
			break
		} else if err != nil {
			t.Fatal(err)
		}
	}
	if src.reads != bursts+1 {
		t.Fatalf("%d bursts took %d reads, want one each and one for EOF", bursts, src.reads)
	}
}

// TestLengthClaimIsNotAllocation: a set that claims MaxData with ten bytes
// behind it allocates nothing near the claim and leaves the buffer at its
// initial size.
func TestLengthClaimIsNotAllocation(t *testing.T) {
	in := "set k 0 0 " + strconv.Itoa(MaxData) + "\r\n0123456789"
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	rd := NewReader(strings.NewReader(in))
	_, err := rd.ReadRequest()
	runtime.ReadMemStats(&ms1)
	if err != io.ErrUnexpectedEOF {
		t.Fatalf("err = %v, want io.ErrUnexpectedEOF", err)
	}
	if got := ms1.TotalAlloc - ms0.TotalAlloc; got > MaxData/2 {
		t.Fatalf("a %d-byte claim with 10 bytes behind it allocated %d bytes", MaxData, got)
	}
	if got := rd.Buffer().Cap(); got != readbuf.Size {
		t.Fatalf("buffer grew to %d bytes, want %d", got, readbuf.Size)
	}
}

// trickleTime returns the shortest of five runs' time to parse every request
// of in when it arrives one byte per Read.
func trickleTime(t *testing.T, in []byte) time.Duration {
	t.Helper()
	best := time.Duration(math.MaxInt64)
	for range 5 {
		rd := NewReader(iotest.OneByteReader(bytes.NewReader(in)))
		start := time.Now()
		for {
			if _, err := rd.ReadRequest(); err == io.EOF {
				break
			} else if err != nil {
				t.Fatal(err)
			}
			rd.Release()
		}
		best = min(best, time.Since(start))
	}
	return best
}

// TestTrickledLineIsLinear: a line that arrives one byte per Read is searched
// for its end only in the bytes the last read added. A get of 255 MaxKey-byte
// keys, near MaxLine, read a byte at a time takes at most 4x as long as the
// same number of bytes cut into small gets; a search from the line's start on
// every read takes 20x and more.
func TestTrickledLineIsLinear(t *testing.T) {
	line := []byte("get")
	for i := 0; i < 255; i++ {
		line = append(append(line, ' '), bytes.Repeat([]byte{'a' + byte(i%26)}, MaxKey)...)
	}
	line = append(line, '\r', '\n')
	var lines []byte
	for len(lines) < len(line) {
		lines = append(lines, "get "+strings.Repeat("k", 58)+"\r\n"...)
	}
	if one, many := trickleTime(t, line), trickleTime(t, lines); one > 4*many {
		t.Errorf("a %d-byte line took %v one byte per read, %d bytes of small gets %v",
			len(line), one, len(lines), many)
	}
}

// TestLineLimit pins the command-line limit at its edge: a get of MaxKeys
// MaxKey-byte keys, padded with spaces to MaxLine bytes or fewer (terminator
// included), parses, and the request after it too, and one byte more is
// ErrLineTooLong with nothing parsed. Each input is parsed whole and one
// byte per read, with the same result.
func TestLineLimit(t *testing.T) {
	keys := []byte("get")
	for i := 0; i < MaxKeys; i++ {
		keys = append(append(keys, ' '), bytes.Repeat([]byte{'a' + byte(i%26)}, MaxKey)...)
	}
	parse := func(r *Reader) (reqs []string, err error) {
		for {
			req, err := r.ReadRequest()
			if err != nil {
				return reqs, err
			}
			reqs = append(reqs, string(summarize(req)))
		}
	}
	for _, n := range []int{MaxLine - 1, MaxLine, MaxLine + 1} {
		line := append(append([]byte{}, keys...), bytes.Repeat([]byte{' '}, n-2-len(keys))...)
		data := append(line, "\r\nversion\r\n"...)
		wantReqs, wantErr := 2, io.EOF
		if n > MaxLine {
			wantReqs, wantErr = 0, ErrLineTooLong
		}
		whole, wholeErr := parse(NewReader(bytes.NewReader(data)))
		split, splitErr := parse(NewReader(&chunkReader{b: data, n: 1}))
		for _, got := range []struct {
			how  string
			reqs []string
			err  error
		}{{"whole", whole, wholeErr}, {"one byte per read", split, splitErr}} {
			if len(got.reqs) != wantReqs || !errors.Is(got.err, wantErr) {
				t.Errorf("%d-byte line, %s: %d requests, err %v; want %d, %v", n, got.how, len(got.reqs), got.err, wantReqs, wantErr)
			}
		}
		if fmt.Sprint(whole) != fmt.Sprint(split) {
			t.Errorf("%d-byte line: whole and one-byte-per-read parses differ", n)
		}
	}
}
