package kvserver

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// startServer boots a server on loopback ephemeral ports with both
// protocol listeners, torn down with the test.
func startServer(t *testing.T, opts ...func(*Config)) *Server {
	t.Helper()
	cfg := Config{
		RespAddr: "127.0.0.1:0",
		McAddr:   "127.0.0.1:0",
		Slots:    4096,
	}
	for _, fn := range opts {
		fn(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// TestGoldenFixtures replays the committed request/response fixtures over a
// live loopback server and requires the byte-exact reply — framing, CRLFs,
// ordering, everything. Each fixture also runs in a chunked variant that
// dribbles the request a few bytes per write, exercising frames that
// straddle reads on a real socket.
func TestGoldenFixtures(t *testing.T) {
	cmds, err := filepath.Glob(filepath.Join("testdata", "*.cmd"))
	if err != nil || len(cmds) == 0 {
		t.Fatalf("no fixtures found: %v", err)
	}
	for _, chunked := range []bool{false, true} {
		for _, cmdFile := range cmds {
			name := strings.TrimSuffix(filepath.Base(cmdFile), ".cmd")
			t.Run(fmt.Sprintf("dramhit/%s/chunked=%v", name, chunked), func(t *testing.T) {
				req, err := os.ReadFile(cmdFile)
				if err != nil {
					t.Fatal(err)
				}
				want, err := os.ReadFile(strings.TrimSuffix(cmdFile, ".cmd") + ".reply")
				if err != nil {
					t.Fatal(err)
				}
				srv := startServer(t) // fresh keyspace per fixture
				addr := srv.RespAddr()
				if strings.HasPrefix(name, "mc_") {
					addr = srv.McAddr()
				}
				c, err := net.Dial("tcp", addr)
				if err != nil {
					t.Fatal(err)
				}
				defer c.Close()
				if chunked {
					for i := 0; i < len(req); i += 3 {
						end := i + 3
						if end > len(req) {
							end = len(req)
						}
						if _, err := c.Write(req[i:end]); err != nil {
							t.Fatal(err)
						}
						time.Sleep(time.Millisecond)
					}
				} else if _, err := c.Write(req); err != nil {
					t.Fatal(err)
				}
				c.SetReadDeadline(time.Now().Add(5 * time.Second))
				got := make([]byte, len(want))
				if _, err := io.ReadFull(c, got); err != nil {
					t.Fatalf("short reply: %v\ngot so far: %q", err, got)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("reply mismatch\ngot:  %q\nwant: %q", got, want)
				}
				// The server must not have produced anything beyond the
				// golden reply.
				c.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
				if n, _ := c.Read(make([]byte, 64)); n != 0 {
					t.Fatalf("server wrote %d unexpected extra bytes", n)
				}
			})
		}
	}
}
