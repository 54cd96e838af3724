package resp

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

// read parses every command from in, returning arg-joined strings.
func read(t *testing.T, r io.Reader) ([]string, error) {
	t.Helper()
	rd := NewReader(r)
	var out []string
	for {
		cmd, err := rd.ReadCommand()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		parts := make([]string, len(cmd.Args))
		for i, a := range cmd.Args {
			parts[i] = string(a)
		}
		out = append(out, strings.Join(parts, " "))
	}
}

func TestMultibulk(t *testing.T) {
	in := "*3\r\n$3\r\nSET\r\n$3\r\nfoo\r\n$3\r\nbar\r\n*2\r\n$3\r\nGET\r\n$3\r\nfoo\r\n"
	got, err := read(t, strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"SET foo bar", "GET foo"}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("got %q, want %q", got, want)
	}
}

func TestInline(t *testing.T) {
	for in, want := range map[string]string{
		"PING\r\n":            "PING",
		"GET  foo\n":          "GET foo", // bare LF, double space
		"  SET foo bar  \r\n": "SET foo bar",
		"\r\n\r\nPING\r\n":    "PING", // empty lines skipped
	} {
		got, err := read(t, strings.NewReader(in))
		if err != nil {
			t.Fatalf("%q: %v", in, err)
		}
		if len(got) != 1 || got[0] != want {
			t.Fatalf("%q: got %q, want [%q]", in, got, want)
		}
	}
}

// TestSplitReads feeds frames one byte per Read call: the parser must
// reassemble them identically to the whole-buffer parse.
func TestSplitReads(t *testing.T) {
	in := "*3\r\n$3\r\nSET\r\n$5\r\nhello\r\n$11\r\nworld value\r\nPING\r\n*2\r\n$3\r\nGET\r\n$5\r\nhello\r\n"
	whole, err := read(t, strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	split, err := read(t, iotest.OneByteReader(strings.NewReader(in)))
	if err != nil {
		t.Fatal(err)
	}
	if len(whole) != 3 || len(split) != 3 {
		t.Fatalf("whole=%q split=%q", whole, split)
	}
	for i := range whole {
		if whole[i] != split[i] {
			t.Fatalf("split read diverged at %d: %q vs %q", i, whole[i], split[i])
		}
	}
}

// TestArenaStability pins the batching contract: args from several pipelined
// commands all stay valid until Release.
func TestArenaStability(t *testing.T) {
	var in bytes.Buffer
	for i := 0; i < 100; i++ {
		in.WriteString("*3\r\n$3\r\nSET\r\n$4\r\nkey")
		in.WriteByte(byte('0' + i%10))
		in.WriteString("\r\n$5\r\nval0")
		in.WriteByte(byte('0' + i%10))
		in.WriteString("\r\n")
	}
	rd := NewReader(bytes.NewReader(in.Bytes()))
	var cmds []Command
	for {
		cmd, err := rd.ReadCommand()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		cmds = append(cmds, cmd)
	}
	if len(cmds) != 100 {
		t.Fatalf("parsed %d commands", len(cmds))
	}
	for i, cmd := range cmds {
		wantK := "key" + string(byte('0'+i%10))
		wantV := "val0" + string(byte('0'+i%10))
		if string(cmd.Args[0]) != "SET" || string(cmd.Args[1]) != wantK || string(cmd.Args[2]) != wantV {
			t.Fatalf("cmd %d corrupted after batch parse: %q %q %q",
				i, cmd.Args[0], cmd.Args[1], cmd.Args[2])
		}
	}
	rd.Release()
}

func TestOversizedBulkRejectedBeforeAllocation(t *testing.T) {
	// The bulk length claims 1 TB; the reader must fail without allocating.
	in := "*2\r\n$3\r\nGET\r\n$1099511627776\r\nx\r\n"
	var before, after int64
	allocs := testing.AllocsPerRun(10, func() {
		rd := NewReader(strings.NewReader(in))
		_, err := rd.ReadCommand()
		if !errors.Is(err, ErrBulkTooLong) {
			t.Fatalf("err = %v, want ErrBulkTooLong", err)
		}
	})
	_ = before
	_ = after
	// NewReader allocates its read buffer and Reader struct; the point is
	// that no 1 TB (or even MaxBulk) buffer was attempted. A loose bound on
	// total allocations per parse proves it.
	if allocs > 10 {
		t.Fatalf("oversized bulk caused %v allocations", allocs)
	}
}

func TestTooManyArgs(t *testing.T) {
	if _, err := read(t, strings.NewReader("*98765\r\n")); !errors.Is(err, ErrTooManyArgs) {
		t.Fatalf("err = %v, want ErrTooManyArgs", err)
	}
}

func TestMidFrameEOF(t *testing.T) {
	for _, in := range []string{
		"*2\r\n$3\r\nGET\r\n", // missing second bulk
		"*2\r\n$3\r\nGE",      // cut inside bulk data
		"*2\r\n",              // header only
		"$",                   // inline fragment, no terminator
		"*1\r\n$5\r\nhi\r\n",  // bulk shorter than its header
	} {
		_, err := read(t, strings.NewReader(in))
		if err == nil {
			t.Fatalf("%q parsed cleanly", in)
		}
		if err == io.EOF {
			t.Fatalf("%q: clean EOF for a cut frame", in)
		}
	}
}

func TestBadFraming(t *testing.T) {
	for _, in := range []string{
		"*1\r\n:5\r\n",                  // wrong element type
		"*x\r\n",                        // junk count
		"*1\r\n$x\r\n",                  // junk length
		"*1\r\n$-1\r\n",                 // nil bulk inside command
		"*1\r\n$2\r\nhiXX",              // unterminated bulk
		"*1\r\n$\r\n",                   // empty length
		"*1\r\n$-\r\n",                  // lone sign
		"*1\r\n$1\r\r\nx\r\n",           // CR CR LF
		"*1\r\n$0000000000001\r\nx\r\n", // 13 digits
		"*1\r\n$99999999999999999999999\r\n",
	} {
		_, err := read(t, strings.NewReader(in))
		if err == nil || err == io.EOF {
			t.Fatalf("%q: err = %v, want framing error", in, err)
		}
	}
}

func TestAppendHelpers(t *testing.T) {
	var b []byte
	b = AppendSimple(b, "OK")
	b = AppendError(b, "ERR boom")
	b = AppendInt(b, -42)
	b = AppendBulk(b, []byte("hey"))
	b = AppendNil(b)
	b = AppendArrayHeader(b, 2)
	want := "+OK\r\n-ERR boom\r\n:-42\r\n$3\r\nhey\r\n$-1\r\n*2\r\n"
	if string(b) != want {
		t.Fatalf("got %q, want %q", b, want)
	}
}

func TestZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	// After warmup, parsing a pipelined batch and Releasing allocates
	// nothing: arena and header slices are reused.
	in := []byte("*3\r\n$3\r\nSET\r\n$3\r\nfoo\r\n$3\r\nbar\r\n*2\r\n$3\r\nGET\r\n$3\r\nfoo\r\n")
	src := bytes.NewReader(in)
	rd := NewReader(src)
	run := func() {
		src.Reset(in)
		for {
			if _, err := rd.ReadCommand(); err != nil {
				if err != io.EOF {
					t.Fatal(err)
				}
				break
			}
		}
		rd.Release()
	}
	run() // warm the arena
	if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
		t.Fatalf("steady-state parse allocates %v/run", allocs)
	}
}

// appendCmd appends one multibulk command in client framing.
func appendCmd(b []byte, args ...[]byte) []byte {
	b = append(b, '*')
	b = strconv.AppendInt(b, int64(len(args)), 10)
	b = append(b, '\r', '\n')
	for _, a := range args {
		b = append(b, '$')
		b = strconv.AppendInt(b, int64(len(a)), 10)
		b = append(b, '\r', '\n')
		b = append(b, a...)
		b = append(b, '\r', '\n')
	}
	return b
}

// TestArgsExactAcrossBuffers: 600 KiB of SETs, values up to 96 KiB of random
// bytes, read whole and in 4,093-byte reads, released every command, every
// 7 commands or never. Commands straddle the buffer's end, values outgrow
// it, and the last batch is ten times its size; every argument a batch holds
// must still be byte-exact when the batch ends.
func TestArgsExactAcrossBuffers(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var in []byte
	var want [][]byte // key, value, key, value, ...
	for len(in) < 600<<10 {
		n := rng.Intn(200)
		if rng.Intn(8) == 0 {
			n = rng.Intn(96 << 10)
		}
		val := make([]byte, n)
		rng.Read(val)
		key := []byte(fmt.Sprintf("key-%d", len(want)/2))
		in = appendCmd(in, []byte("SET"), key, val)
		want = append(want, key, val)
	}
	cmds := len(want) / 2
	for _, batch := range []int{1, 7, cmds} {
		for _, chunk := range []int{len(in), 4093} {
			rd := NewReader(&chunkReader{b: in, n: chunk})
			var held []Command
			for i := 0; i < cmds; i++ {
				cmd, err := rd.ReadCommand()
				if err != nil {
					t.Fatalf("batch %d, chunk %d: command %d: %v", batch, chunk, i, err)
				}
				if held = append(held, cmd); len(held) < batch && i < cmds-1 {
					continue
				}
				for j, c := range held {
					k := i + 1 - len(held) + j
					if len(c.Args) != 3 || string(c.Args[0]) != "SET" ||
						!bytes.Equal(c.Args[1], want[2*k]) || !bytes.Equal(c.Args[2], want[2*k+1]) {
						t.Fatalf("batch %d, chunk %d: command %d changed before Release", batch, chunk, k)
					}
				}
				held = held[:0]
				rd.Release()
			}
			if _, err := rd.ReadCommand(); err != io.EOF {
				t.Fatalf("batch %d, chunk %d: after the last command: %v", batch, chunk, err)
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
	val := bytes.Repeat([]byte("v"), 700)
	for i := 0; i < 400; i++ {
		in = appendCmd(in, []byte("SET"), []byte(fmt.Sprintf("key-%d", i)), val)
	}
	src := &chunkReader{}
	rd := NewReader(src)
	run := func() {
		src.b, src.n = in, 16<<10
		for n := 1; ; n++ {
			if _, err := rd.ReadCommand(); err != nil {
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
	val := bytes.Repeat([]byte("v"), 1000)
	for b := 0; b < bursts; b++ {
		var burst []byte
		for i := 0; i < perBurst; i++ {
			burst = appendCmd(burst, []byte("SET"), []byte(fmt.Sprintf("k%d-%d", b, i)), val)
		}
		src.bursts = append(src.bursts, burst)
	}
	rd := NewReader(src)
	for n := 0; ; n++ {
		if !rd.Buffered() {
			rd.Release()
		}
		if _, err := rd.ReadCommand(); err == io.EOF {
			if n != bursts*perBurst {
				t.Fatalf("parsed %d commands, want %d", n, bursts*perBurst)
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

// TestLengthClaimIsNotAllocation: a bulk header that claims MaxBulk with ten
// bytes behind it allocates nothing near the claim and leaves the buffer at
// its initial size.
func TestLengthClaimIsNotAllocation(t *testing.T) {
	in := "*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$" + strconv.Itoa(MaxBulk) + "\r\n0123456789"
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	rd := NewReader(strings.NewReader(in))
	_, err := rd.ReadCommand()
	runtime.ReadMemStats(&ms1)
	if err != io.ErrUnexpectedEOF {
		t.Fatalf("err = %v, want io.ErrUnexpectedEOF", err)
	}
	if got := ms1.TotalAlloc - ms0.TotalAlloc; got > 1<<20 {
		t.Fatalf("a %d-byte claim with 10 bytes behind it allocated %d bytes", MaxBulk, got)
	}
	if got := rd.Buffer().Cap(); got != readbuf.Size {
		t.Fatalf("buffer grew to %d bytes, want %d", got, readbuf.Size)
	}
}

// trickleTime returns the shortest of five runs' time to parse every command
// of in when it arrives one byte per Read.
func trickleTime(t *testing.T, in []byte) time.Duration {
	t.Helper()
	best := time.Duration(math.MaxInt64)
	for range 5 {
		rd := NewReader(iotest.OneByteReader(bytes.NewReader(in)))
		start := time.Now()
		for {
			if _, err := rd.ReadCommand(); err == io.EOF {
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

// TestTrickledFrameIsLinear: a frame that arrives one byte per Read resumes
// its parse where the last read left it. A near-MaxInline inline line and a
// MaxArgs multibulk, read a byte at a time, each take at most 4x as long as
// the same number of bytes cut into small commands; a parse that restarts
// from the frame's start on every read takes 20x and more.
func TestTrickledFrameIsLinear(t *testing.T) {
	line := "SET k " + strings.Repeat("v", MaxInline-8) + "\n"
	var lines string
	for len(lines) < len(line) {
		lines += "SET k " + strings.Repeat("v", 57) + "\n"
	}
	bulk := appendCmd(nil, bytes.Split(bytes.Repeat([]byte("x"), MaxArgs), nil)...)
	var bulks []byte
	for len(bulks) < len(bulk) {
		bulks = appendCmd(bulks, []byte("x"))
	}
	for _, c := range []struct {
		name        string
		frame, many []byte
	}{{"inline", []byte(line), []byte(lines)}, {"multibulk", bulk, bulks}} {
		one, many := trickleTime(t, c.frame), trickleTime(t, c.many)
		if one > 4*many {
			t.Errorf("%s: a %d-byte frame took %v one byte per read, %d bytes of small commands %v",
				c.name, len(c.frame), one, len(c.many), many)
		}
	}
}

// TestInlineLineLimit pins the inline-line limit at its edge: a line of
// MaxInline bytes or fewer (terminator included) parses, and the command
// after it too, and one byte more is ErrLineTooLong with nothing parsed.
// Each input is parsed whole and one byte per read, with the same result.
func TestInlineLineLimit(t *testing.T) {
	for _, n := range []int{MaxInline - 1, MaxInline, MaxInline + 1} {
		data := []byte("SET k " + strings.Repeat("v", n-8) + "\r\nPING\r\n")
		wantCmds, wantErr := 2, io.EOF
		if n > MaxInline {
			wantCmds, wantErr = 0, ErrLineTooLong
		}
		whole, wholeErr := parseAll(t, NewReader(bytes.NewReader(data)), len(data))
		split, splitErr := parseAll(t, NewReader(&chunkReader{b: data, n: 1}), len(data))
		for _, got := range []struct {
			how  string
			cmds [][]string
			err  error
		}{{"whole", whole, wholeErr}, {"one byte per read", split, splitErr}} {
			if len(got.cmds) != wantCmds || !errors.Is(got.err, wantErr) {
				t.Errorf("%d-byte line, %s: %d commands, err %v; want %d, %v", n, got.how, len(got.cmds), got.err, wantCmds, wantErr)
			}
		}
		if fmt.Sprint(whole) != fmt.Sprint(split) {
			t.Errorf("%d-byte line: whole and one-byte-per-read parses differ", n)
		}
	}
}
