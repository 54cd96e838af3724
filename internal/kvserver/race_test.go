package kvserver

import (
	"bufio"
	"fmt"
	"math/rand"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestConcurrentClientChurn hammers both listeners from many goroutines
// with connection churn and mid-write disconnects. Run under -race (it is
// on the CI race list) this is the server's concurrency safety check: the
// shared state is the table, the conn registry and the worker pool, whose
// workers pass from connection to connection.
func TestConcurrentClientChurn(t *testing.T) {
	srv := startServer(t)
	const clients = 8
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for iter := 0; iter < 25; iter++ {
				if rng.Intn(2) == 0 {
					churnRESP(t, srv.RespAddr(), rng)
				} else {
					churnMc(t, srv.McAddr(), rng)
				}
			}
		}(int64(g))
	}
	wg.Wait()
}

func churnRESP(t *testing.T, addr string, rng *rand.Rand) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Error(err)
		return
	}
	defer c.Close()
	if rng.Intn(4) == 0 {
		// Mid-write disconnect: half a multibulk frame, then hang up. The
		// server must tear the connection down without wedging.
		c.Write([]byte("*3\r\n$3\r\nSET\r\n$5\r\nhal"))
		return
	}
	var wire []byte
	n := 1 + rng.Intn(8)
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("churn-%d", rng.Intn(64))
		switch rng.Intn(3) {
		case 0:
			wire = respEnc(wire, "SET", k, "v")
		case 1:
			wire = respEnc(wire, "GET", k)
		default:
			wire = respEnc(wire, "DEL", k)
		}
	}
	c.Write(wire)
	br := bufio.NewReader(c)
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	for i := 0; i < n; i++ {
		if _, err := readReply(br); err != nil {
			t.Errorf("churn reply: %v", err)
			return
		}
	}
}

func churnMc(t *testing.T, addr string, rng *rand.Rand) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Error(err)
		return
	}
	defer c.Close()
	if rng.Intn(4) == 0 {
		// Disconnect inside a data block.
		c.Write([]byte("set churned 0 0 100\r\npartial"))
		return
	}
	k := fmt.Sprintf("churn-mc-%d", rng.Intn(64))
	fmt.Fprintf(c, "set %s 0 0 2\r\nvv\r\nget %s\r\n", k, k)
	br := bufio.NewReader(c)
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	for i := 0; i < 4; i++ { // STORED, VALUE, vv, END
		if _, err := br.ReadString('\n'); err != nil {
			t.Errorf("mc churn reply: %v", err)
			return
		}
	}
}

// TestCloseDuringInFlight severs the server while clients are mid-batch:
// Close must return promptly (no goroutine waits on a dead client), the
// clients must observe EOF/reset rather than a hang, and every severed batch
// must have returned its worker to the pool.
func TestCloseDuringInFlight(t *testing.T) {
	srv := startServer(t)
	const clients = 6
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				c, err := net.Dial("tcp", srv.RespAddr())
				if err != nil {
					return // listener closed
				}
				var wire []byte
				for i := 0; i < 16; i++ {
					wire = respEnc(wire, "SET", fmt.Sprintf("cd-%d", rng.Intn(32)), "v")
				}
				c.Write(wire)
				c.SetReadDeadline(time.Now().Add(2 * time.Second))
				br := bufio.NewReader(c)
				for i := 0; i < 16; i++ {
					if _, err := readReply(br); err != nil {
						break // server closing underneath us is expected
					}
				}
				c.Close()
			}
		}(int64(g))
	}
	time.Sleep(50 * time.Millisecond) // let traffic build
	done := make(chan struct{})
	go func() {
		srv.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Close hung with in-flight connections")
	}
	close(stop)
	wg.Wait()
	if len(srv.free) != srv.handles {
		t.Errorf("%d of %d workers back in the pool after Close", len(srv.free), srv.handles)
	}

	// A second Close is a no-op, and new dials are refused.
	srv.Close()
	if c, err := net.Dial("tcp", srv.RespAddr()); err == nil {
		c.Close()
		t.Fatal("dial succeeded after Close")
	}
}

// TestConcurrentClientsCompacting: four RESP clients pipeline SETs, GETs and
// DELs of their own 300 keys and INCRs of eight shared counters into a table
// over 128-byte arena segments, so compaction passes run while the other
// connections' batches are in flight. Every reply matches the client's own
// reference map, and the counters sum to the INCRs made. Run under -race (it
// is on the CI race list) it is the server's check of compaction against
// concurrent batches and synchronous writes.
func TestConcurrentClientsCompacting(t *testing.T) {
	withSegments(t, 128)
	srv := startServer(t)
	const clients, keys, rounds, batch, counters = 4, 300, 300, 16, 8
	var incrs atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c, err := net.Dial("tcp", srv.RespAddr())
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			br := bufio.NewReader(c)
			rng := rand.New(rand.NewSource(int64(g)))
			ref := map[string]string{}
			for round := 0; round < rounds; round++ {
				var wire []byte
				var want []string // "" accepts any integer reply
				for i := 0; i < batch; i++ {
					k := fmt.Sprintf("c%d-key-%03d", g, rng.Intn(keys))
					switch rng.Intn(8) {
					case 0:
						wire = respEnc(wire, "DEL", k)
						if _, ok := ref[k]; ok {
							want = append(want, ":1")
						} else {
							want = append(want, ":0")
						}
						delete(ref, k)
					case 1:
						wire = respEnc(wire, "INCR", fmt.Sprintf("counter-%d", rng.Intn(counters)))
						want = append(want, "")
						incrs.Add(1)
					case 2, 3:
						wire = respEnc(wire, "GET", k)
						if v, ok := ref[k]; ok {
							want = append(want, "$"+v)
						} else {
							want = append(want, "nil")
						}
					default:
						v := fmt.Sprintf("%s=%d.%d", k, round, i)
						wire = respEnc(wire, "SET", k, v)
						ref[k] = v
						want = append(want, "+OK")
					}
				}
				if _, err := c.Write(wire); err != nil {
					t.Error(err)
					return
				}
				c.SetReadDeadline(time.Now().Add(10 * time.Second))
				for i, w := range want {
					got, err := readReply(br)
					if err != nil || (w == "" && !strings.HasPrefix(got, ":")) || (w != "" && got != w) {
						t.Errorf("client %d round %d reply %d: (%q, %v), want %q", g, round, i, got, err, w)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	c, err := net.Dial("tcp", srv.RespAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	br := bufio.NewReader(c)
	var sum int64
	for i := 0; i < counters; i++ {
		c.Write(respEnc(nil, "GET", fmt.Sprintf("counter-%d", i)))
		r, err := readReply(br)
		if err != nil {
			t.Fatal(err)
		}
		if r != "nil" {
			n, err := strconv.ParseInt(r[1:], 10, 64)
			if err != nil {
				t.Fatalf("counter %d reads %q", i, r)
			}
			sum += n
		}
	}
	if sum != incrs.Load() {
		t.Errorf("counters sum to %d, want %d", sum, incrs.Load())
	}
	srv.Table().Bucket().Arena().WaitPass()
	if cs := srv.Table().Bucket().Arena().CompactStats(); cs.Passes == 0 || cs.Moved == 0 {
		t.Errorf("compaction %+v: want passes that moved records", cs)
	}
}
