package kvserver

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"dramhit/internal/obs"
	"dramhit/internal/workload"
)

// respEnc appends one multibulk command in client framing.
func respEnc(b []byte, args ...string) []byte {
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

// readReply parses one RESP reply into a canonical string: "+OK", ":3",
// "-ERR ...", "$<data>", or "nil".
func readReply(br *bufio.Reader) (string, error) {
	line, err := br.ReadString('\n')
	if err != nil {
		return "", err
	}
	if len(line) < 3 {
		return "", fmt.Errorf("short reply line %q", line)
	}
	body := line[1 : len(line)-2]
	switch line[0] {
	case '+', ':':
		return line[:1] + body, nil
	case '-':
		return "-" + body, nil
	case '$':
		n, err := strconv.Atoi(body)
		if err != nil {
			return "", fmt.Errorf("bad bulk header %q", line)
		}
		if n < 0 {
			return "nil", nil
		}
		data := make([]byte, n+2)
		if _, err := io.ReadFull(br, data); err != nil {
			return "", err
		}
		return "$" + string(data[:n]), nil
	}
	return "", fmt.Errorf("unexpected reply type %q", line)
}

// TestOracleRandomOps drives random pipelined batches over a live RESP
// connection and checks every reply against a reference map mutated in the
// same order — including pipelined same-key sequences (SET/GET/DEL of one
// key inside one wire batch), which exercise the FIFO completion contract
// end to end.
//
// The "compacting" run serves a table over 128-byte arena segments, with ten
// times the keys and rounds, so that compaction passes move records between
// the batches.
func TestOracleRandomOps(t *testing.T) {
	t.Run("dramhit", func(t *testing.T) { oracleRandomOps(t, startServer(t), 40, 150) })
	t.Run("compacting", func(t *testing.T) {
		withSegments(t, 128)
		srv := startServer(t)
		oracleRandomOps(t, srv, 400, 1500)
		srv.Table().Bucket().Arena().WaitPass()
		if srv.Table().Bucket().Arena().CompactStats().Passes == 0 {
			t.Fatal("no compaction pass ran")
		}
	})
}

func oracleRandomOps(t *testing.T, srv *Server, keys, rounds int) {
	{
		c, err := net.Dial("tcp", srv.RespAddr())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		br := bufio.NewReader(c)

		rng := rand.New(rand.NewSource(99))
		ref := map[string]string{}
		key := func() string { return fmt.Sprintf("k%02d", rng.Intn(keys)) }

		for round := 0; round < rounds; round++ {
			nops := 1 + rng.Intn(32)
			var wire []byte
			var want []string
			for i := 0; i < nops; i++ {
				k := key()
				switch rng.Intn(10) {
				case 0, 1, 2, 3: // GET
					wire = respEnc(wire, "GET", k)
					if v, ok := ref[k]; ok {
						want = append(want, "$"+v)
					} else {
						want = append(want, "nil")
					}
				case 4, 5, 6: // SET
					v := fmt.Sprintf("val-%d-%d", round, i)
					wire = respEnc(wire, "SET", k, v)
					ref[k] = v
					want = append(want, "+OK")
				case 7: // DEL
					wire = respEnc(wire, "DEL", k)
					if _, ok := ref[k]; ok {
						want = append(want, ":1")
					} else {
						want = append(want, ":0")
					}
					delete(ref, k)
				case 8: // INCR (numeric iff the ref value parses)
					wire = respEnc(wire, "INCR", k)
					if v, ok := ref[k]; !ok {
						ref[k] = "1"
						want = append(want, ":1")
					} else if n, err := strconv.ParseUint(v, 10, 64); err == nil {
						ref[k] = strconv.FormatUint(n+1, 10)
						want = append(want, ":"+ref[k])
					} else {
						want = append(want, "-err")
					}
				default: // PING keeps a non-table op inside the batch
					wire = respEnc(wire, "PING")
					want = append(want, "+PONG")
				}
			}
			if _, err := c.Write(wire); err != nil {
				t.Fatal(err)
			}
			c.SetReadDeadline(time.Now().Add(5 * time.Second))
			for i, w := range want {
				got, err := readReply(br)
				if err != nil {
					t.Fatalf("round %d reply %d: %v", round, i, err)
				}
				if w == "-err" {
					if got[0] != '-' {
						t.Fatalf("round %d reply %d: got %q, want an error", round, i, got)
					}
					continue
				}
				if got != w {
					t.Fatalf("round %d reply %d: got %q, want %q", round, i, got, w)
				}
			}
		}
		if srv.Table().Len() != len(ref) {
			t.Fatalf("table has %d entries, reference %d", srv.Table().Len(), len(ref))
		}
	}
}

// TestMcOracleRandomOps is TestOracleRandomOps over memcached text: random
// pipelined batches of multi-key get/gets (misses and repeated keys), set
// with random flags, delete, and incr/decr on numeric, non-numeric and
// absent keys, with and without noreply. The expected reply stream of each
// batch is built byte for byte from a reference map, so the completion
// order of a multi-key get (VALUE blocks, then END after the last key) is
// checked on every batch.
func TestMcOracleRandomOps(t *testing.T) {
	type rec struct {
		flags uint32
		val   string
	}
	srv := startServer(t)
	c, err := net.Dial("tcp", srv.McAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	rng := rand.New(rand.NewSource(7))
	ref := map[string]rec{}
	key := func() string { return fmt.Sprintf("k%02d", rng.Intn(40)) }
	noreply := func() (string, bool) {
		if rng.Intn(4) == 0 {
			return " noreply", true
		}
		return "", false
	}

	for round := 0; round < 150; round++ {
		var wire, want []byte
		for i, nops := 0, 1+rng.Intn(24); i < nops; i++ {
			k := key()
			switch rng.Intn(10) {
			case 0, 1, 2: // get/gets of 1-4 keys, repeats allowed
				verb := "get"
				if rng.Intn(2) == 0 {
					verb = "gets"
				}
				wire = append(wire, verb...)
				for j, n := 0, 1+rng.Intn(4); j < n; j++ {
					if j > 0 {
						k = key()
					}
					wire = append(wire, ' ')
					wire = append(wire, k...)
					if r, ok := ref[k]; ok {
						want = fmt.Appendf(want, "VALUE %s %d %d\r\n%s\r\n", k, r.flags, len(r.val), r.val)
					}
				}
				wire = append(wire, "\r\n"...)
				want = append(want, "END\r\n"...)
			case 3, 4, 5: // set: half the values numeric
				v := fmt.Sprintf("v-%d-%d", round, i)
				if rng.Intn(2) == 0 {
					v = strconv.Itoa(rng.Intn(50))
				}
				flags := rng.Uint32()
				nr, quiet := noreply()
				wire = fmt.Appendf(wire, "set %s %d 0 %d%s\r\n%s\r\n", k, flags, len(v), nr, v)
				ref[k] = rec{flags, v}
				if !quiet {
					want = append(want, "STORED\r\n"...)
				}
			case 6: // delete
				nr, quiet := noreply()
				wire = fmt.Appendf(wire, "delete %s%s\r\n", k, nr)
				_, ok := ref[k]
				delete(ref, k)
				switch {
				case quiet:
				case ok:
					want = append(want, "DELETED\r\n"...)
				default:
					want = append(want, "NOT_FOUND\r\n"...)
				}
			default: // incr/decr: decr clamps at 0, flags survive
				verb, delta := "incr", uint64(rng.Intn(60))
				if rng.Intn(2) == 0 {
					verb = "decr"
				}
				nr, quiet := noreply()
				wire = fmt.Appendf(wire, "%s %s %d%s\r\n", verb, k, delta, nr)
				r, ok := ref[k]
				n, err := strconv.ParseUint(r.val, 10, 64)
				switch {
				case !ok:
					if !quiet {
						want = append(want, "NOT_FOUND\r\n"...)
					}
					continue
				case err != nil:
					if !quiet {
						want = append(want, "CLIENT_ERROR cannot increment or decrement non-numeric value\r\n"...)
					}
					continue
				case verb == "incr":
					n += delta
				case delta > n:
					n = 0
				default:
					n -= delta
				}
				ref[k] = rec{r.flags, strconv.FormatUint(n, 10)}
				if !quiet {
					want = fmt.Appendf(want, "%d\r\n", n)
				}
			}
		}
		if _, err := c.Write(wire); err != nil {
			t.Fatal(err)
		}
		c.SetReadDeadline(time.Now().Add(5 * time.Second))
		got := make([]byte, len(want))
		if _, err := io.ReadFull(c, got); err != nil {
			t.Fatalf("round %d: short reply: %v\ngot so far: %q\nwant: %q", round, err, got, want)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("round %d: reply mismatch\nsent: %q\ngot:  %q\nwant: %q", round, wire, got, want)
		}
	}
	// A replied request after the last batch orders its noreply tail
	// before the count.
	c.Write([]byte("version\r\n"))
	if line, err := bufio.NewReader(c).ReadString('\n'); err != nil || !strings.HasPrefix(line, "VERSION") {
		t.Fatalf("version: %q, %v", line, err)
	}
	if srv.Table().Len() != len(ref) {
		t.Fatalf("table has %d entries, reference %d", srv.Table().Len(), len(ref))
	}
}

// TestObsSurface checks the serving metrics. The table runs observed: its
// "dramhit-h<i>" shards, one per pooled worker, hold the op counts (INCR is
// an upsert) and a latency sample per op class (the registry samples every
// request), and its "dramhit" source has live and handles. The "server" pull
// source has the connection and pool gauges and no copy of the table's.
func TestObsSurface(t *testing.T) {
	reg := obs.NewWith(obs.DefaultTraceCap, 1)
	srv := startServer(t, func(c *Config) { c.Obs = reg })
	c, err := net.Dial("tcp", srv.RespAddr())
	if err != nil {
		t.Fatal(err)
	}
	var wire []byte
	wire = respEnc(wire, "SET", "k", "v")
	wire = respEnc(wire, "GET", "k")
	wire = respEnc(wire, "GET", "missing")
	wire = respEnc(wire, "DEL", "k")
	wire = respEnc(wire, "INCR", "n")
	c.Write(wire)
	br := bufio.NewReader(c)
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	for i := 0; i < 5; i++ {
		if _, err := readReply(br); err != nil {
			t.Fatal(err)
		}
	}

	// A batch's replies go out after its FlushBytes published the counts.
	classes := map[int]uint64{}
	var counts [obs.NumCounters]uint64
	for _, w := range reg.Workers() {
		if !strings.HasPrefix(w.Name(), "dramhit-h") {
			t.Errorf("obs worker %q, want only the table's dramhit-h shards", w.Name())
		}
		for cls := 0; cls < obs.NumOpClasses; cls++ {
			classes[cls] += w.Op[cls].Count()
		}
		for i := range counts {
			counts[i] += w.Counter(i)
		}
	}
	for _, cls := range []int{obs.OpGetHit, obs.OpGetMiss, obs.OpPut, obs.OpUpsert, obs.OpDeleteHit} {
		if classes[cls] != 1 {
			t.Errorf("op class %s recorded %d latency samples, want 1", obs.OpClassNames[cls], classes[cls])
		}
	}
	if counts[obs.CPuts] != 1 || counts[obs.CGets] != 2 || counts[obs.CUpserts] != 1 || counts[obs.CDeletes] != 1 {
		t.Errorf("table counters: puts=%d gets=%d upserts=%d deletes=%d, want 1/2/1/1",
			counts[obs.CPuts], counts[obs.CGets], counts[obs.CUpserts], counts[obs.CDeletes])
	}
	tm := pullSource(t, reg, "dramhit")()
	if tm["handles"] != float64(srv.handles) || len(reg.Workers()) != srv.handles {
		t.Errorf("handles = %v with %d obs workers, want the pool size %d", tm["handles"], len(reg.Workers()), srv.handles)
	}
	if tm["live"] != 1 || srv.Table().Len() != 1 {
		t.Errorf("live = %v, table Len %d, want 1 (n)", tm["live"], srv.Table().Len())
	}

	src := pullSource(t, reg, "server")
	m := src()
	if m["conns_resp_open"] != 1 || m["conns_resp_total"] != 1 {
		t.Errorf("conn gauges: %+v", m)
	}
	for _, dup := range []string{"table_entries", "handles"} {
		if _, ok := m[dup]; ok {
			t.Errorf("server source has %s, a copy of the table's", dup)
		}
	}
	if w, ok := m["handle_waits"]; !ok || w != 0 {
		t.Errorf("handle_waits = (%v, %v) with one connection, want (0, true)", w, ok)
	}
	// One connection's few records sit in its first segment, never huge.
	if huge, ok := m["arena_huge_bytes"]; !ok || huge != 0 {
		t.Errorf("arena_huge_bytes = (%v, %v), want (0, true)", huge, ok)
	}
	rss, ok := m["mem_rss_bytes"]
	huge, okHuge := m["mem_anon_huge_bytes"]
	if onLinux := runtime.GOOS == "linux"; ok != onLinux || okHuge != onLinux || (ok && (rss <= 0 || huge > rss)) {
		t.Errorf("memory gauges on %s: rss (%v, %v), anon huge (%v, %v)", runtime.GOOS, rss, ok, huge, okHuge)
	}
	c.Close()
	deadline := time.Now().Add(2 * time.Second)
	for src()["conns_resp_open"] != 0 {
		if time.Now().After(deadline) {
			t.Fatal("conns_resp_open never returned to 0 after disconnect")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestObservedServerHotKeys sends a zipf-0.99 stream of pipelined commands
// through an observed server: GETs and SETs, which run on the byte ring, and
// INCRs only, each a synchronous upsert. The merged hot-key ranking's first
// entry is the table's hash of the hottest key, and the "dramhit" heatmap is
// the bucket layout's, with every live entry of the table.
func TestObservedServerHotKeys(t *testing.T) {
	for _, in := range []struct {
		name string
		cmd  func(i int, key string) []string
	}{
		{"set-get", func(i int, key string) []string {
			if i%2 == 0 {
				return []string{"SET", key, "v"}
			}
			return []string{"GET", key}
		}},
		{"incr", func(_ int, key string) []string { return []string{"INCR", key} }},
	} {
		t.Run(in.name, func(t *testing.T) {
			reg := obs.New()
			srv := startServer(t, func(c *Config) { c.Obs = reg })
			c, err := net.Dial("tcp", srv.RespAddr())
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			br := bufio.NewReader(c)
			z := workload.NewZipf(rand.New(rand.NewSource(3)), 1000, 0.99)
			const batch = 64
			var wire []byte
			for b := 0; b < 32768/batch; b++ {
				wire = wire[:0]
				for i := 0; i < batch; i++ {
					// rank 0 is the hottest
					wire = respEnc(wire, in.cmd(i, fmt.Sprintf("hot-%d", z.Next()))...)
				}
				c.Write(wire)
				c.SetReadDeadline(time.Now().Add(5 * time.Second))
				for i := 0; i < batch; i++ {
					if _, err := readReply(br); err != nil {
						t.Fatal(err)
					}
				}
			}
			top := reg.TopKeys(3)
			if want := srv.Table().Bucket().HashOf([]byte("hot-0")); len(top) == 0 || top[0].Key != want {
				t.Fatalf("hot keys %+v, want the hash %d of hot-0 first", top, want)
			}
			var kinds []string
			for _, hm := range reg.Heatmaps() {
				if hm.Source == "dramhit" {
					kinds = append(kinds, hm.Kind)
					if got := hm.Gauges["live_entries"]; got != float64(srv.Table().Len()) {
						t.Errorf("heatmap live_entries = %v, table Len %d", got, srv.Table().Len())
					}
				}
			}
			if len(kinds) != 1 || kinds[0] != "bucket" {
				t.Errorf("dramhit heatmaps of kinds %v, want one bucket heatmap", kinds)
			}
		})
	}
}

// TestArenaGauges: after RESP connections each SET a key and close, every
// arena gauge of the "server" pull source equals its arena accessor, and the
// table's "dramhit" source counts each key live. A last connection only PINGs
// and writes no segment. The 256-connection input is the churn a long-lived
// server sees: pins and segments stay bounded by the worker pool, the
// "dramhit" source's handles, since the table registers no pin of its own and
// only pooled handles write.
func TestArenaGauges(t *testing.T) {
	const tablePins = 0
	for _, conns := range []int{6, 256} {
		t.Run(strconv.Itoa(conns), func(t *testing.T) {
			reg := obs.New()
			srv := startServer(t, func(c *Config) { c.Obs = reg })
			src, tsrc := pullSource(t, reg, "server"), pullSource(t, reg, "dramhit")
			for i := 0; i <= conns; i++ {
				c, err := net.Dial("tcp", srv.RespAddr())
				if err != nil {
					t.Fatal(err)
				}
				cmd, want := respEnc(nil, "SET", fmt.Sprintf("gauge-key-%d", i), "v"), "+OK"
				if i == conns {
					cmd, want = respEnc(nil, "PING"), "+PONG"
				}
				c.Write(cmd)
				c.SetReadDeadline(time.Now().Add(5 * time.Second))
				if r, err := readReply(bufio.NewReader(c)); err != nil || r != want {
					t.Fatalf("connection %d: reply (%q, %v), want %q", i, r, err, want)
				}
				c.Close()
			}
			deadline := time.Now().Add(5 * time.Second)
			for src()["conns_resp_open"] != 0 {
				if time.Now().After(deadline) {
					t.Fatal("conns_resp_open never returned to 0 after disconnect")
				}
				time.Sleep(10 * time.Millisecond)
			}
			m, tm := src(), tsrc()
			ar := srv.Table().Bucket().Arena()
			total, live := ar.Segments()
			var used, dead uint64
			for _, st := range ar.SegmentStats() {
				used, dead = used+st.Used, dead+st.Dead
			}
			for name, want := range map[string]float64{
				"arena_segments":       float64(total),
				"arena_segments_live":  float64(live),
				"arena_segments_freed": float64(ar.Freed()),
				"arena_pins":           float64(ar.Pins()),
				"arena_bytes_used":     float64(used),
				"arena_bytes_dead":     float64(dead),
			} {
				if got, ok := m[name]; !ok || got != want {
					t.Errorf("%s = (%v, %v), arena accessor says %v", name, got, ok, want)
				}
			}
			if tm["live"] != float64(conns) || m["arena_segments_live"] == 0 {
				t.Errorf("%d connections wrote %v entries into %v live segments", conns, tm["live"], m["arena_segments_live"])
			}
			if tm["handles"] != float64(srv.handles) {
				t.Errorf("dramhit source handles = %v, want the pool size %d", tm["handles"], srv.handles)
			}
			if bound := tm["handles"] + tablePins; m["arena_pins"] > bound || m["arena_segments"] > bound {
				t.Errorf("%d connections left %v pins and %v segments, want at most %v each", conns, m["arena_pins"], m["arena_segments"], bound)
			}
		})
	}
}

// TestReadBufferGauge: connections that each send a 1 MiB value grow
// read_buffer_bytes by about that much each, not by the next power of two
// above it, and once they close the gauge is back at its baseline.
func TestReadBufferGauge(t *testing.T) {
	reg := obs.New()
	srv := startServer(t, func(c *Config) { c.Obs = reg })
	src := pullSource(t, reg, "server")
	waitClosed := func() {
		deadline := time.Now().Add(2 * time.Second)
		for m := src(); m["conns_resp_open"]+m["conns_mc_open"] != 0; m = src() {
			if time.Now().After(deadline) {
				t.Fatal("connections never closed")
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	baseline := src()["read_buffer_bytes"]
	const conns = 4
	val := strings.Repeat("v", 1<<20)
	var cs []net.Conn
	for i := 0; i < conns; i++ {
		addr, cmd, want := srv.RespAddr(), respEnc(nil, "SET", fmt.Sprintf("big-%d", i), val), "+OK\r\n"
		if i%2 == 1 {
			addr, cmd, want = srv.McAddr(), []byte(fmt.Sprintf("set big-%d 0 0 %d\r\n%s\r\n", i, len(val), val)), "STORED\r\n"
		}
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		cs = append(cs, c)
		c.Write(cmd)
		c.SetReadDeadline(time.Now().Add(5 * time.Second))
		if got, err := bufio.NewReader(c).ReadString('\n'); err != nil || got != want {
			t.Fatalf("connection %d: reply (%q, %v), want %q", i, got, err, want)
		}
	}
	// A batch's reply goes out before its end moves the gauge: wait for it.
	got := src()["read_buffer_bytes"] - baseline
	for deadline := time.Now().Add(2 * time.Second); got < conns*(1<<20) && time.Now().Before(deadline); {
		time.Sleep(10 * time.Millisecond)
		got = src()["read_buffer_bytes"] - baseline
	}
	if got < conns*(1<<20) || got > conns*1.1*(1<<20) {
		t.Errorf("read_buffer_bytes grew by %v with %d connections holding 1 MiB values", got, conns)
	}
	for _, c := range cs {
		c.Close()
	}
	waitClosed()
	if got := src()["read_buffer_bytes"]; got != baseline {
		t.Errorf("read_buffer_bytes = %v after every connection closed, baseline %v", got, baseline)
	}
}

// TestRESPErrorOneFrame: an error reply that echoes a client's bytes stays
// one frame. The unknown verb below carries CRLF and a forged "+INJECTED"
// reply; unescaped, it would end the -ERR frame early and pair every later
// reply with the wrong request.
func TestRESPErrorOneFrame(t *testing.T) {
	srv := startServer(t)
	c, err := net.Dial("tcp", srv.RespAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Write([]byte("*1\r\n$13\r\nX\r\n+INJECTED\r\n*1\r\n$4\r\nPING\r\n*1\r\n$4\r\nQUIT\r\n"))
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	br := bufio.NewReader(c)
	var replies []string
	for {
		r, err := readReply(br)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		replies = append(replies, r)
	}
	if len(replies) != 3 || !strings.HasPrefix(replies[0], "-ERR ") || replies[1] != "+PONG" || replies[2] != "+OK" {
		t.Fatalf("three commands got replies %q, want one -ERR frame, +PONG and +OK", replies)
	}
}

// TestPartialFrameStall: complete requests followed by the first part of the
// next frame are answered at once, whether the frame is cut in a header, a
// bulk, an inline line or a data block, since a client may wait for those
// replies before it sends the rest. The last input parks four connections per
// pooled worker mid-frame, each after a SET, and a fresh connection's GET is
// still answered: a connection that waits for bytes holds no worker.
func TestPartialFrameStall(t *testing.T) {
	srv := startServer(t)
	set := string(respEnc(nil, "SET", "k", "v"))
	cases := []struct {
		name       string
		mc         bool
		send, want string
		conns      int
	}{
		{"resp/mid-header", false, set + "*2\r\n$3", "+OK\r\n", 1},
		{"resp/mid-bulk", false, "*1\r\n$4\r\nPING\r\n*1\r\n$4\r\nPI", "+PONG\r\n", 1},
		{"resp/mid-inline-line", false, "SET k v\r\nGET k\r\nPIN", "+OK\r\n$1\r\nv\r\n", 1},
		{"mc/mid-line", true, "version\r\nver", "VERSION dramhit-1.0\r\n", 1},
		{"mc/mid-data-block", true, "set k 0 0 1\r\nv\r\nset k 0 0 5\r\nhel", "STORED\r\n", 1},
		{"resp/parked-past-pool", false, set + "*1\r\n$4\r\nPI", "+OK\r\n", 4 * srv.handles},
	}
	expect := func(t *testing.T, addr, send, want string) {
		t.Helper()
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		c.Write([]byte(send))
		c.SetReadDeadline(time.Now().Add(time.Second))
		got := make([]byte, len(want))
		if _, err := io.ReadFull(c, got); err != nil || string(got) != want {
			t.Fatalf("sent %q: got (%q, %v), want %q", send, got, err, want)
		}
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			addr := srv.RespAddr()
			if tc.mc {
				addr = srv.McAddr()
			}
			for i := 0; i < tc.conns; i++ {
				expect(t, addr, tc.send, tc.want)
			}
			expect(t, srv.RespAddr(), string(respEnc(nil, "GET", "k")), "$1\r\nv\r\n")
		})
	}
}

// TestCrossProtocol pins the shared-keyspace record format: a value set via
// memcached (with flags) reads back via RESP as the bare payload, and a
// RESP-set value reads via memcached with flags 0.
func TestCrossProtocol(t *testing.T) {
	srv := startServer(t)

	mc, err := net.Dial("tcp", srv.McAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer mc.Close()
	mc.Write([]byte("set shared 42 0 5\r\nhello\r\n"))
	mcbr := bufio.NewReader(mc)
	mc.SetReadDeadline(time.Now().Add(5 * time.Second))
	if line, _ := mcbr.ReadString('\n'); line != "STORED\r\n" {
		t.Fatalf("mc set: %q", line)
	}

	rc, err := net.Dial("tcp", srv.RespAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	rc.Write(respEnc(nil, "GET", "shared"))
	rbr := bufio.NewReader(rc)
	rc.SetReadDeadline(time.Now().Add(5 * time.Second))
	if got, _ := readReply(rbr); got != "$hello" {
		t.Fatalf("RESP read of mc-set key: %q", got)
	}

	rc.Write(respEnc(nil, "SET", "shared2", "world"))
	if got, _ := readReply(rbr); got != "+OK" {
		t.Fatalf("RESP set: %q", got)
	}
	mc.Write([]byte("get shared2\r\n"))
	if line, _ := mcbr.ReadString('\n'); line != "VALUE shared2 0 5\r\n" {
		t.Fatalf("mc read of RESP-set key: %q", line)
	}
}
