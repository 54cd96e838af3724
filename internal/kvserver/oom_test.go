package kvserver

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"testing"
)

// TestArenaFullRepliesOOM fills the arena's segment directory over the wire.
// The server's table stores records in one-byte segments, so every record
// takes a segment of its own and the directory's 65,536 entries run out
// after about as many SETs. A write the arena refuses gets RESP's -OOM or
// memcached's SERVER_ERROR, the key keeps its old value, and GETs, DELs and
// new connections are still served.
func TestArenaFullRepliesOOM(t *testing.T) {
	withSegments(t, 1)
	srv := startServer(t)
	c, err := net.Dial("tcp", srv.RespAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	br := bufio.NewReader(c)
	do := func(args ...string) string {
		t.Helper()
		if _, err := c.Write(respEnc(nil, args...)); err != nil {
			t.Fatal(err)
		}
		r, err := readReply(br)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	key := func(i int) string { return fmt.Sprintf("key-%d", i) }
	if r := do("SET", "counter", "41"); r != "+OK" {
		t.Fatalf("SET counter: %q", r)
	}

	// Pipelined SETs of fresh keys until the first refusal; every one after
	// it is refused too, since no record fits a one-byte segment.
	const chunk = 1024
	stored, refused := 0, 0
	for refused == 0 {
		if stored > 1<<17 {
			t.Fatalf("%d SETs stored and none refused", stored)
		}
		var req []byte
		for i := stored; i < stored+chunk; i++ {
			req = respEnc(req, "SET", key(i), "v")
		}
		if _, err := c.Write(req); err != nil {
			t.Fatal(err)
		}
		n := stored
		for i := n; i < n+chunk; i++ {
			r, err := readReply(br)
			switch {
			case err != nil:
				t.Fatal(err)
			case r == "+OK" && refused == 0:
				stored++
			case strings.HasPrefix(r, "-OOM "):
				refused++
			default:
				t.Fatalf("SET %d (after %d stored, %d refused): reply %q", i, stored, refused, r)
			}
		}
	}
	if stored < 60000 {
		t.Fatalf("the directory filled after %d SETs", stored)
	}

	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"GET", key(0)}, "$v"},
		{[]string{"GET", key(stored - 1)}, "$v"},
		{[]string{"GET", key(stored)}, "nil"}, // refused: never stored
		{[]string{"SET", key(0), "new"}, "-OOM"},
		{[]string{"GET", key(0)}, "$v"}, // the refused overwrite kept the old value
		{[]string{"INCR", "counter"}, "-OOM"},
		{[]string{"GET", "counter"}, "$41"},
		{[]string{"DEL", key(1)}, ":1"},
		{[]string{"GET", key(1)}, "nil"},
		{[]string{"PING"}, "+PONG"},
	} {
		if r := do(c.args...); !strings.HasPrefix(r, c.want) {
			t.Errorf("%v: reply %q, want %q", c.args, r, c.want)
		}
	}

	mc, err := net.Dial("tcp", srv.McAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer mc.Close()
	mbr := bufio.NewReader(mc)
	fmt.Fprintf(mc, "set %s 0 0 1\r\nx\r\nincr counter 1\r\nget %s counter\r\n", key(2), key(2))
	var lines []string
	for len(lines) < 7 {
		line, err := mbr.ReadString('\n')
		if err != nil {
			t.Fatalf("memcached replies %q: %v", lines, err)
		}
		lines = append(lines, strings.TrimSuffix(line, "\r\n"))
	}
	want := []string{mcOOM, mcOOM, "VALUE " + key(2) + " 0 1", "v", "VALUE counter 0 2", "41", "END"}
	if strings.Join(lines, "|") != strings.Join(want, "|") {
		t.Errorf("memcached replies %q, want %q", lines, want)
	}
}
