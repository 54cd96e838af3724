package main

import (
	"net"
	"sync"
	"testing"

	"dramhit/internal/resp"
)

// fakeRESP is a single-threaded map-backed RESP server. corrupt, when not
// nil, may rewrite the payload of the n-th GET hit before it is sent.
type fakeRESP struct {
	ln      net.Listener
	mu      sync.Mutex
	data    map[string][]byte
	hits    int
	corrupt func(hit int, payload []byte) (reply []byte, found bool)
	wg      sync.WaitGroup
}

func newFakeRESP(t *testing.T, corrupt func(int, []byte) ([]byte, bool)) *fakeRESP {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	f := &fakeRESP{ln: ln, data: map[string][]byte{}, corrupt: corrupt}
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			f.wg.Add(1)
			go f.serve(c)
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		f.wg.Wait()
	})
	return f
}

func (f *fakeRESP) serve(c net.Conn) {
	defer f.wg.Done()
	defer c.Close()
	r := resp.NewReader(c)
	var out []byte
	for {
		cmd, err := r.ReadCommand()
		if err != nil {
			return
		}
		f.mu.Lock()
		switch string(cmd.Args[0]) {
		case "GET":
			v, ok := f.data[string(cmd.Args[1])]
			if ok && f.corrupt != nil {
				f.hits++
				v, ok = f.corrupt(f.hits, append([]byte(nil), v...))
			}
			if ok {
				out = resp.AppendBulk(out, v)
			} else {
				out = resp.AppendNil(out)
			}
		case "SET":
			f.data[string(cmd.Args[1])] = append([]byte(nil), cmd.Args[2]...)
			out = resp.AppendSimple(out, "OK")
		case "DEL":
			_, ok := f.data[string(cmd.Args[1])]
			delete(f.data, string(cmd.Args[1]))
			if ok {
				out = resp.AppendInt(out, 1)
			} else {
				out = resp.AppendInt(out, 0)
			}
		}
		f.mu.Unlock()
		if !r.Buffered() {
			if _, err := c.Write(out); err != nil {
				return
			}
			out = out[:0]
			r.Release()
		}
	}
}

// driveFake runs a small srv-pipe-shaped workload (with deletes, so every
// reply kind occurs) against the fake and returns attempted and failed.
func driveFake(t *testing.T, f *fakeRESP) (attempted, failed int) {
	t.Helper()
	sz := srvPipe(true)
	sz.getPct, sz.delPct = 70, 5
	const ops = 6400
	c, err := net.Dial("tcp", f.ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	w := newConnWorker(sz, newKeyspace(11), 0, kvStream(sz.kvSizes, 11, 0, ops), c)
	if err := w.preload(); err != nil {
		t.Fatal(err)
	}
	var h hist
	w.run(ops, &h, nil)
	if h.n == 0 {
		t.Error("no latency samples recorded")
	}
	return w.counts()
}

func TestOracleAcceptsACorrectServer(t *testing.T) {
	attempted, failed := driveFake(t, newFakeRESP(t, nil))
	if attempted < 6400 || failed != 0 {
		t.Errorf("correct server: attempted %d failed %d", attempted, failed)
	}
}

func TestOracleCatchesCorruptedReplies(t *testing.T) {
	for name, corrupt := range map[string]func(int, []byte) ([]byte, bool){
		// The header names the wrong version: caught on every GET.
		"header byte": func(hit int, v []byte) ([]byte, bool) {
			if hit == 100 {
				v[4] ^= 1
			}
			return v, true
		},
		"lost key": func(hit int, v []byte) ([]byte, bool) { return v, hit != 100 },
		"short value": func(hit int, v []byte) ([]byte, bool) {
			if hit == 100 {
				v = v[:len(v)-1]
			}
			return v, true
		},
		// A flipped filler byte is only seen by the 1-in-16 full compare, so
		// corrupt a stretch of replies long enough to contain a sampled one.
		"filler byte": func(hit int, v []byte) ([]byte, bool) {
			if hit >= 100 && hit < 132 {
				v[len(v)-1] ^= 0x80
			}
			return v, true
		},
	} {
		if _, failed := driveFake(t, newFakeRESP(t, corrupt)); failed == 0 {
			t.Errorf("%s: corrupted reply went unnoticed (ops_failed = 0)", name)
		}
	}
}

// A server that breaks the framing must fail the remaining operations, not
// hang or be skipped.
func TestOracleFailsEverythingAfterAProtocolError(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		buf := make([]byte, 1<<16)
		if _, err := c.Read(buf); err == nil {
			_, _ = c.Write([]byte("!garbage\r\n"))
		}
	}()
	sz := srvPipe(true)
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	w := newConnWorker(sz, newKeyspace(1), 0, kvStream(sz.kvSizes, 1, 0, 640), c)
	var h hist
	w.run(320, &h, nil)
	w.run(320, &h, nil)
	if attempted, failed := w.counts(); attempted != 640 || failed != 640 {
		t.Errorf("attempted %d failed %d, want 640 and 640", attempted, failed)
	}
}
