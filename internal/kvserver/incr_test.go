package kvserver

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"
)

// TestUpsertNumericStaleSeed calls the INCR/DECR core on a key whose state
// is no longer what the client saw when it sent the command, as a racing
// write leaves it: the key now holds a non-numeric value, or is absent.
// Every decision must come from the record Mutate sees, so a non-numeric
// value is left unchanged with the error under either protocol. An absent
// key is created from RESP's zero seed (redis); memcached never creates it
// and reports it not found.
func TestUpsertNumericStaleSeed(t *testing.T) {
	cases := []struct {
		name        string
		stored      []byte // nil: absent when the command runs
		create      bool
		wantFound   bool
		wantNumeric bool
		wantN       uint64
		wantRecord  []byte // nil: still absent
	}{
		{"non-numeric/resp-seed", appendRecord(nil, 3, []byte("abc")), true,
			true, false, 0, appendRecord(nil, 3, []byte("abc"))},
		{"non-numeric/mc-stale-seed", appendRecord(nil, 3, []byte("abc")), false,
			true, false, 0, appendRecord(nil, 3, []byte("abc"))},
		{"absent/resp-seed", nil, true,
			true, true, 1, appendRecord(nil, 0, []byte("1"))},
		{"absent/mc-stale-seed", nil, false,
			false, false, 0, nil},
		{"numeric/mc-stale-seed", appendRecord(nil, 3, []byte("41")), false,
			true, true, 42, appendRecord(nil, 3, []byte("42"))},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cn := &conn{s: startServer(t)}
			defer cn.flush()
			h := cn.worker().h
			key := []byte("ctr")
			if tc.stored != nil {
				h.PutBytes(key, tc.stored)
			}
			n, found, numeric, stored := cn.incr(key, tc.create, 1, false)
			if found != tc.wantFound || numeric != tc.wantNumeric || n != tc.wantN || !stored {
				t.Errorf("incr = (%d, found %v, numeric %v, stored %v), want (%d, %v, %v, true)",
					n, found, numeric, stored, tc.wantN, tc.wantFound, tc.wantNumeric)
			}
			got, ok := h.GetBytes(key)
			if ok != (tc.wantRecord != nil) || !bytes.Equal(got, tc.wantRecord) {
				t.Errorf("stored record %q (present %v), want %q", got, ok, tc.wantRecord)
			}
		})
	}
}

// TestMcIncrRacingDelete runs memcached incr on one key from several
// connections while another deletes it. An incr that lands after the delete
// must answer NOT_FOUND and leave the key absent, so the final get finds
// nothing.
func TestMcIncrRacingDelete(t *testing.T) {
	srv := startServer(t)
	dial := func() (net.Conn, *bufio.Reader, bool) {
		c, err := net.Dial("tcp", srv.McAddr())
		if err != nil {
			t.Error(err)
			return nil, nil, false
		}
		c.SetDeadline(time.Now().Add(30 * time.Second))
		return c, bufio.NewReader(c), true
	}
	roundTrip := func(c net.Conn, br *bufio.Reader, req string) string {
		if _, err := c.Write([]byte(req)); err != nil {
			t.Error(err)
			return ""
		}
		line, err := br.ReadString('\n')
		if err != nil {
			t.Error(err)
		}
		return line
	}
	ctl, ctlr, ok := dial()
	if !ok {
		return
	}
	defer ctl.Close()
	const rounds, incrConns, incrs = 20, 4, 32
	for round := 0; round < rounds && !t.Failed(); round++ {
		k := fmt.Sprintf("ctr%d", round)
		if got := roundTrip(ctl, ctlr, "set "+k+" 0 0 1\r\n0\r\n"); got != "STORED\r\n" {
			t.Fatalf("set: %q", got)
		}
		var wg sync.WaitGroup
		for g := 0; g < incrConns; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				c, br, ok := dial()
				if !ok {
					return
				}
				defer c.Close()
				for i := 0; i < incrs; i++ {
					got := roundTrip(c, br, "incr "+k+" 1\r\n")
					var n uint64
					if _, err := fmt.Sscanf(got, "%d\r\n", &n); err != nil && got != "NOT_FOUND\r\n" {
						t.Errorf("incr: %q", got)
						return
					}
				}
			}()
		}
		if got := roundTrip(ctl, ctlr, "delete "+k+"\r\n"); got != "DELETED\r\n" {
			t.Errorf("delete: %q", got)
		}
		wg.Wait()
		if got := roundTrip(ctl, ctlr, "get "+k+"\r\n"); got != "END\r\n" {
			t.Errorf("round %d: get after delete answered %q, want END: an incr re-created the key", round, got)
		}
	}
}
