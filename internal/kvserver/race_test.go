package kvserver

import (
	"bufio"
	"fmt"
	"math/rand"
	"net"
	"sync"
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
