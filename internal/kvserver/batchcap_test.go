package kvserver

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"strings"
	"syscall"
	"testing"
	"time"

	"dramhit/internal/mctext"
	"dramhit/internal/resp"
)

// scriptedConn is a net.Conn whose reads drain a prebuilt buffer and whose
// writes are discarded. Because every byte is already "on the wire", the
// reader's Buffered() stays true for the whole stream — the worst case for
// batch memory: no natural input-drain flush until EOF, so only the batch
// caps bound per-connection accumulation.
type scriptedConn struct{ in *bytes.Reader }

func (c *scriptedConn) Read(p []byte) (int, error)       { return c.in.Read(p) }
func (c *scriptedConn) Write(p []byte) (int, error)      { return len(p), nil }
func (c *scriptedConn) Close() error                     { return nil }
func (c *scriptedConn) LocalAddr() net.Addr              { return &net.TCPAddr{} }
func (c *scriptedConn) RemoteAddr() net.Addr             { return &net.TCPAddr{} }
func (c *scriptedConn) SetDeadline(time.Time) error      { return nil }
func (c *scriptedConn) SetReadDeadline(time.Time) error  { return nil }
func (c *scriptedConn) SetWriteDeadline(time.Time) error { return nil }

// TestWriteHeavyBatchBounded regression-tests the input-side batch cap: a
// pipelined write-heavy stream appends almost nothing to the reply buffer
// (memcached noreply sets append zero bytes; RESP SET replies are 5 bytes
// per multi-KB value), so the reply-side high-water mark alone would never
// flush, and the read buffer, which the batch end before each read leaves
// held, would retain the whole stream. The stream is 4x inputHighWater; the
// read buffers and every pooled worker's encoded-value scratch must end well
// under that, proving the input-side cap released them. With 1 KiB values
// many frames share each read; with 64 KiB values every frame is as large
// as the read buffer, so each batch ends mid-frame and the held bytes span
// batches through relocation and growth.
func TestWriteHeavyBatchBounded(t *testing.T) {
	for _, c := range []struct {
		suffix  string
		valSize int
	}{{"", 64 << 10}, {"-1KiB", 1 << 10}} {
		valSize, sets := c.valSize, 4*inputHighWater/c.valSize

		t.Run("mc-noreply"+c.suffix, func(t *testing.T) {
			srv := startServer(t)
			var in bytes.Buffer
			val := bytes.Repeat([]byte("m"), valSize)
			for i := 0; i < sets; i++ {
				fmt.Fprintf(&in, "set whm-%d 0 0 %d noreply\r\n", i, valSize)
				in.Write(val)
				in.WriteString("\r\n")
			}
			cn := &conn{s: srv, c: &scriptedConn{in: bytes.NewReader(in.Bytes())}}
			r := mctext.NewReader(cn)
			cn.serve(mcProto{r})
			if got := max(maxVbuf(srv), r.Buffer().Cap()); got >= 2*inputHighWater {
				t.Errorf("vbuf or read buffers grew to %d bytes serving a %d-byte noreply stream; input-side batch cap did not flush", got, in.Len())
			}
			if n := srv.Table().Len(); n != sets {
				t.Errorf("table has %d entries after %d noreply sets", n, sets)
			}
		})

		t.Run("resp-set"+c.suffix, func(t *testing.T) {
			srv := startServer(t)
			var in []byte
			val := strings.Repeat("r", valSize)
			for i := 0; i < sets; i++ {
				in = respEnc(in, "SET", fmt.Sprintf("whr-%d", i), val)
			}
			cn := &conn{s: srv, c: &scriptedConn{in: bytes.NewReader(in)}}
			r := resp.NewReader(cn)
			cn.serve(respProto{r})
			if got := max(maxVbuf(srv), r.Buffer().Cap()); got >= 2*inputHighWater {
				t.Errorf("vbuf or read buffers grew to %d bytes serving a %d-byte SET stream; input-side batch cap did not flush", got, len(in))
			}
			if n := srv.Table().Len(); n != sets {
				t.Errorf("table has %d entries after %d sets", n, sets)
			}
		})
	}
}

// maxVbuf is the largest encoded-value scratch of the pool's workers, all of
// which are back in the pool once a connection's serve loop returned.
func maxVbuf(srv *Server) int {
	n := 0
	for _, wk := range srv.free {
		n = max(n, cap(wk.vbuf))
	}
	return n
}

// TestLongLinesWithinDeclaredLimits pins that the declared protocol limits
// (resp.MaxInline, mctext.MaxLine), not the transport buffer size, bound a
// command line. With a default 4 KB bufio the limits were unreachable: a
// protocol-legal memcached multi-key get (hundreds of 200-byte keys) or a
// long RESP inline command was severed as too long.
func TestLongLinesWithinDeclaredLimits(t *testing.T) {
	srv := startServer(t)

	// RESP inline command well past 4 KB: a miss, not a protocol error.
	rc, err := net.Dial("tcp", srv.RespAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	fmt.Fprintf(rc, "GET %s\r\n", strings.Repeat("k", 6000))
	rbr := bufio.NewReader(rc)
	rc.SetReadDeadline(time.Now().Add(5 * time.Second))
	if got, err := readReply(rbr); err != nil || got != "nil" {
		t.Fatalf("6 KB inline GET: got %q, %v; want nil miss", got, err)
	}

	// Protocol-legal memcached multi-key get: 256 keys, ~200 bytes each
	// (a ~51 KB command line). One stored key must come back VALUE, the
	// rest miss silently, END terminates.
	mc, err := net.Dial("tcp", srv.McAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer mc.Close()
	mc.Write([]byte("set mk-hit 0 0 2\r\nhi\r\n"))
	mbr := bufio.NewReader(mc)
	mc.SetReadDeadline(time.Now().Add(5 * time.Second))
	if line, _ := mbr.ReadString('\n'); line != "STORED\r\n" {
		t.Fatalf("set: %q", line)
	}
	var get bytes.Buffer
	get.WriteString("get mk-hit")
	for i := 0; i < 255; i++ {
		fmt.Fprintf(&get, " miss-%03d-%s", i, strings.Repeat("x", 190))
	}
	get.WriteString("\r\n")
	if get.Len() <= 8<<10 {
		t.Fatalf("test line only %d bytes; meant to exceed the old 8 KB limit", get.Len())
	}
	mc.Write(get.Bytes())
	want := []string{"VALUE mk-hit 0 2\r\n", "hi\r\n", "END\r\n"}
	for _, w := range want {
		line, err := mbr.ReadString('\n')
		if err != nil || line != w {
			t.Fatalf("multi-key get: got %q, %v; want %q", line, err, w)
		}
	}
}

// TestTransientAcceptClassification pins which Accept errors retry (fd
// exhaustion, aborted handshakes, timeouts) versus stop the listener.
func TestTransientAcceptClassification(t *testing.T) {
	transient := []error{
		syscall.EMFILE,
		syscall.ENFILE,
		syscall.ECONNABORTED,
		&net.OpError{Op: "accept", Err: syscall.EMFILE},
	}
	for _, err := range transient {
		if !isTransientAccept(err) {
			t.Errorf("%v should be retried", err)
		}
	}
	if isTransientAccept(net.ErrClosed) {
		t.Error("net.ErrClosed must stop the accept loop, not retry")
	}
}
