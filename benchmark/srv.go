package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"strconv"
	"sync"
	"time"
)

// srvSizes fixes a server workload: the protocol, the server's flags, and
// the byte-key workload the connections run (kvSizes.batch is the pipeline
// depth of the closed loop).
type srvSizes struct {
	mc bool // memcached text protocol; RESP otherwise
	kvSizes
}

func srvPipe(quick bool) srvSizes {
	if quick {
		return srvSizes{kvSizes: kvSizes{slots: 1 << 14, workers: 2, keys: 1 << 12, minVal: 64, maxVal: 64, batch: 32,
			getPct: 95, absentPct: 2, reps: 1, phase: phase{warmOps: 1600, windows: 20, windowOps: 1600}}}
	}
	return srvSizes{kvSizes: kvSizes{slots: 1 << 21, workers: 1, keys: 1 << 20, minVal: 64, maxVal: 64, batch: 32,
		getPct: 95, absentPct: 2, reps: 5, phase: phase{warmOps: 100 * 1024, windows: 750, windowOps: 10 * 1024}}}
}

func srvMcWrite(quick bool) srvSizes {
	if quick {
		return srvSizes{mc: true, kvSizes: kvSizes{slots: 1 << 14, workers: 2, keys: 1 << 12, minVal: 128, maxVal: 128, batch: 8,
			getPct: 50, delPct: 5, reps: 1, phase: phase{warmOps: 1600, windows: 20, windowOps: 800}}}
	}
	// Five percent deletes with no matching re-SET share: a deleted key comes
	// back through the re-SET branch of the stream, at the same rate.
	return srvSizes{mc: true, kvSizes: kvSizes{slots: 1 << 21, workers: 1, keys: 1 << 19, minVal: 128, maxVal: 128, batch: 8,
		getPct: 50, delPct: 5, reps: 5, phase: phase{warmOps: 40 * 1024, windows: 750, windowOps: 5 * 1024}}}
}

// errProtocol marks a reply the client could not parse; the connection's
// framing is lost, so the worker stops and fails everything that follows.
var errProtocol = errors.New("unparseable reply")

// inFlight is how many batches a connection keeps outstanding. With two,
// the server works on one batch while the client parses the replies to the
// other, so one client thread and one server thread keep both vCPUs busy
// without outnumbering them (README, "Noise").
const inFlight = 2

// flight is one written batch whose replies are still to come.
type flight struct {
	exp    []kvExpect
	t0     int64 // when the batch was written
	spanID int32 // its batch span in a traced window
}

// connWorker drives one connection in a closed loop: it writes a batch of
// depth requests, then reads and verifies the replies to the batch written
// before it.
type connWorker struct {
	*kvOracle
	mc     bool
	c      net.Conn
	br     *bufio.Reader
	wbuf   []byte
	flying [inFlight]flight
	err    error // sticky: after it, every op counts as failed
}

func (w *connWorker) counts() (int, int) { return w.attempts, w.failed }

// ioTimeout bounds one window's network waits; a server that stops
// answering fails the ops instead of hanging the run.
const ioTimeout = 60 * time.Second

// run leaves nothing outstanding when it returns, so every window starts
// and ends with an idle connection.
func (w *connWorker) run(n int, h *hist, tr *tracer) {
	if w.err == nil {
		w.err = w.c.SetDeadline(time.Now().Add(ioTimeout))
	}
	depth := w.sz.batch
	written, answered := 0, 0 // batches
	for done := 0; done < n; done += depth {
		w.attempts += depth
		if w.err != nil {
			w.failed += depth
			w.pos += depth
			continue
		}
		var bt, st spanTok
		if tr != nil {
			bt = tr.begin(spBatch, -1)
		}
		f := &w.flying[written%inFlight]
		w.wbuf, f.exp, f.spanID = w.wbuf[:0], f.exp[:0], bt.id
		for i := 0; i < depth; i++ {
			e := w.next()
			f.exp = append(f.exp, e)
			w.wbuf = w.appendRequest(w.wbuf, e)
		}
		if tr != nil {
			st = tr.begin(spWrite, bt.id)
		}
		f.t0 = now()
		_, w.err = w.c.Write(w.wbuf)
		if tr != nil {
			tr.end(st)
			tr.end(bt)
		}
		if written++; written-answered == inFlight {
			w.collect(&w.flying[answered%inFlight], h, tr)
			answered++
		}
	}
	for ; answered < written; answered++ {
		w.collect(&w.flying[answered%inFlight], h, tr)
	}
}

// collect reads the replies to one batch; each is one latency sample, from
// the write of the batch to the parse of the reply.
func (w *connWorker) collect(f *flight, h *hist, tr *tracer) {
	var st spanTok
	if tr != nil {
		st = tr.begin(spRead, f.spanID)
	}
	got := 0
	for w.err == nil && got < len(f.exp) {
		if w.err = w.readReply(f.exp[got]); w.err == nil {
			h.add(uint64(now() - f.t0))
			got++
		}
	}
	w.failed += len(f.exp) - got
	if tr != nil {
		tr.end(st)
	}
}

// appendRequest encodes one op in the connection's protocol.
func (w *connWorker) appendRequest(b []byte, e kvExpect) []byte {
	if w.mc {
		switch e.op {
		case kvGet:
			b = append(b, "get "...)
			b = w.ks.appendKey(b, e.idx)
		case kvSet:
			n := w.valueLen(e)
			b = append(b, "set "...)
			b = w.ks.appendKey(b, e.idx)
			b = append(b, " 0 0 "...)
			b = strconv.AppendInt(b, int64(n), 10)
			b = append(b, "\r\n"...)
			b = w.ks.appendValue(b, e.idx, e.ver, n)
		default:
			b = append(b, "delete "...)
			b = w.ks.appendKey(b, e.idx)
		}
		return append(b, "\r\n"...)
	}
	bulkKey := func(b []byte) []byte {
		b = append(b, "$16\r\n"...)
		b = w.ks.appendKey(b, e.idx)
		return append(b, "\r\n"...)
	}
	switch e.op {
	case kvGet:
		return bulkKey(append(b, "*2\r\n$3\r\nGET\r\n"...))
	case kvSet:
		n := w.valueLen(e)
		b = bulkKey(append(b, "*3\r\n$3\r\nSET\r\n"...))
		b = append(b, '$')
		b = strconv.AppendInt(b, int64(n), 10)
		b = append(b, "\r\n"...)
		b = w.ks.appendValue(b, e.idx, e.ver, n)
		return append(b, "\r\n"...)
	default:
		return bulkKey(append(b, "*2\r\n$3\r\nDEL\r\n"...))
	}
}

// readReply reads and judges the reply to e. A wrong answer is a failed
// operation; an answer that cannot be framed is an error.
func (w *connWorker) readReply(e kvExpect) error {
	line, err := w.readLine()
	if err != nil {
		return err
	}
	if w.mc {
		return w.mcReply(e, line)
	}
	switch e.op {
	case kvGet:
		if len(line) < 2 || line[0] != '$' {
			return errProtocol
		}
		if string(line) == "$-1" {
			w.checkGet(e, nil, false)
			return nil
		}
		n, err := strconv.Atoi(string(line[1:]))
		if err != nil || n < 0 {
			return errProtocol
		}
		return w.readValue(e, n)
	case kvSet:
		if string(line) != "+OK" {
			w.failed++
		}
	default:
		if (e.found && string(line) != ":1") || (!e.found && string(line) != ":0") {
			w.failed++
		}
	}
	return nil
}

func (w *connWorker) mcReply(e kvExpect, line []byte) error {
	switch e.op {
	case kvGet:
		if string(line) == "END" {
			w.checkGet(e, nil, false)
			return nil
		}
		// "VALUE <key> <flags> <bytes>"; the server echoes the key and the
		// flags the client stored, which are always 0.
		rest, ok := bytes.CutPrefix(line, []byte("VALUE "))
		sp := bytes.LastIndexByte(rest, ' ')
		if !ok || sp < 0 {
			return errProtocol
		}
		n, err := strconv.Atoi(string(rest[sp+1:]))
		if err != nil || n < 0 {
			return errProtocol
		}
		w.scratch = append(w.ks.appendKey(w.scratch[:0], e.idx), " 0"...)
		if !bytes.Equal(rest[:sp], w.scratch) {
			w.failed++
		}
		if err := w.readValue(e, n); err != nil {
			return err
		}
		end, err := w.readLine()
		if err != nil {
			return err
		}
		if string(end) != "END" {
			return errProtocol
		}
	case kvSet:
		if string(line) != "STORED" {
			w.failed++
		}
	default:
		if (e.found && string(line) != "DELETED") || (!e.found && string(line) != "NOT_FOUND") {
			w.failed++
		}
	}
	return nil
}

// readLine returns the next reply line without its CRLF.
func (w *connWorker) readLine() ([]byte, error) {
	line, err := w.br.ReadSlice('\n')
	if err != nil {
		return nil, err
	}
	if len(line) < 2 || line[len(line)-2] != '\r' {
		return nil, errProtocol
	}
	return line[:len(line)-2], nil
}

// readValue consumes an n-byte data block and its CRLF and checks it.
func (w *connWorker) readValue(e kvExpect, n int) error {
	if n+2 > w.br.Size() {
		return errProtocol
	}
	v, err := w.br.Peek(n + 2)
	if err != nil {
		return err
	}
	if v[n] != '\r' || v[n+1] != '\n' {
		return errProtocol
	}
	w.checkGet(e, v[:n], true)
	_, err = w.br.Discard(n + 2)
	return err
}

// preload stores version 1 of every key of the worker's range and verifies
// every acknowledgement. Like the measured loop it keeps two batches in
// flight, so neither side idles while the other works.
func (w *connWorker) preload() error {
	const depth = 256
	if err := w.c.SetDeadline(time.Now().Add(ioTimeout)); err != nil {
		return err
	}
	ok := "+OK"
	if w.mc {
		ok = "STORED"
	}
	acks := func(m uint32) error {
		for ; m > 0; m-- {
			line, err := w.readLine()
			if err != nil {
				return err
			}
			w.attempts++
			if string(line) != ok {
				w.failed++
			}
		}
		return nil
	}
	n := uint32(len(w.shadow))
	owed := uint32(0) // acknowledgements of the batch written before the last
	for i := uint32(0); i < n; i += depth {
		w.wbuf = w.wbuf[:0]
		m := min(depth, n-i)
		for j := uint32(0); j < m; j++ {
			w.wbuf = w.appendRequest(w.wbuf, kvExpect{op: kvSet, idx: w.base + i + j, ver: 1})
		}
		if _, err := w.c.Write(w.wbuf); err != nil {
			return err
		}
		if err := acks(owed); err != nil {
			return err
		}
		owed = m
	}
	return acks(owed)
}

// srvBench is one set-up of a server workload.
type srvBench struct {
	sz      srvSizes
	ks      keyspace
	srv     *server
	workers []*connWorker
}

func newConnWorker(sz srvSizes, ks keyspace, w int, stream []uint32, c net.Conn) *connWorker {
	return &connWorker{
		kvOracle: newKVOracle(sz.kvSizes, ks, w, stream),
		mc:       sz.mc, c: c, br: bufio.NewReaderSize(c, 64<<10),
	}
}

// setupSrv spawns a fresh server, connects, preloads and warms up.
func setupSrv(sz srvSizes, seed uint64, bin string) (*srvBench, error) {
	b := &srvBench{sz: sz, ks: newKeyspace(seed)}
	slots := strconv.FormatUint(sz.slots, 10)
	var err error
	if sz.mc {
		b.srv, err = startServer(bin, "memcached", "-resp", "", "-mc", "127.0.0.1:0", "-slots", slots)
	} else {
		b.srv, err = startServer(bin, "resp", "-resp", "127.0.0.1:0", "-slots", slots)
	}
	if err != nil {
		return nil, err
	}
	streams := kvStreams(sz.kvSizes, seed, sz.phase.warmOps+sz.phase.windows*sz.phase.windowOps)
	for w := 0; w < sz.workers; w++ {
		c, err := net.DialTimeout("tcp", b.srv.addr, 10*time.Second)
		if err != nil {
			return nil, fmt.Errorf("connecting to the server: %w", err)
		}
		b.workers = append(b.workers, newConnWorker(sz, b.ks, w, streams[w], c))
	}
	errs := make([]error, sz.workers)
	var wg sync.WaitGroup
	for w, cw := range b.workers {
		wg.Add(1)
		go func(w int, cw *connWorker) {
			defer wg.Done()
			errs[w] = cw.preload()
		}(w, cw)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, fmt.Errorf("preload: %w", err)
	}
	return b, nil
}

// close drops the connections and stops the server.
func (b *srvBench) close() {
	for _, w := range b.workers {
		w.c.Close()
	}
	b.srv.stop()
}

func runSrv(c config, sz srvSizes) (outcome, error) {
	sz.phase = c.scaled(sz.phase, sz.batch)
	bin := c.serverBin
	if bin == "" {
		var err error
		if bin, err = buildServer(c.outDir); err != nil {
			return outcome{}, err
		}
	}
	// Set-up is timed from here: the build above happens once for all runs
	// and is not part of any of them. Every repetition is a fresh server.
	var b *srvBench
	release := func() {
		if b != nil {
			b.close()
			b = nil
		}
	}
	setupS, err := repeatSetup(sz.reps, release, func() (err error) {
		if b, err = setupSrv(sz, c.seed, bin); err == nil {
			warmUp(asWorkers(b.workers), sz.phase.warmOps)
		}
		return err
	})
	if err != nil {
		return outcome{}, err
	}

	before, err := sampleProc(b.srv.pid())
	if err != nil {
		return outcome{}, fmt.Errorf("reading the server's /proc entries: %w", err)
	}
	srvClock, err := procCPUNS(b.srv.pid())
	if err != nil {
		return outcome{}, err
	}
	m := runPhase(asWorkers(b.workers), sz.phase, srvClock)
	after, err := sampleProc(b.srv.pid())
	if err != nil || !b.srv.alive() {
		return outcome{}, fmt.Errorf("the server exited during the run (%v)", err)
	}

	out := outcome{recs: m.recs}
	for _, w := range b.workers {
		out.attempted += w.attempts
		out.failed += w.failed
		if w.err != nil {
			fmt.Printf("%s: connection failed: %v\n", c.workload, w.err)
		}
	}
	b.close()
	srvCPU := after.cpuS() - before.cpuS()
	if !c.trace {
		out.metrics = endToEndMetrics(setupS, m, after.peakRSSMiB)
		return out, nil
	}

	lm := map[string]float64{}
	harnessMetrics(m, lm)
	ops := float64(summarize(m.recs, nil).ops)
	lm["workload.gen_ns_per_op"] = perOp(float64(selfNS(m.tracers, spBatch)), m.recs, traced)
	lm["kvserver.read_syscalls_per_op"] = float64(after.readCalls-before.readCalls) / ops
	lm["kvserver.write_syscalls_per_op"] = float64(after.writeCalls-before.writeCalls) / ops
	lm["kvserver.ctx_switches_per_op"] = float64(after.ctxSwitches-before.ctxSwitches) / ops
	if srvCPU > 0 {
		lm["kvserver.cpu_sys_share"] = (after.sysS - before.sysS) / srvCPU
	}
	microRungs(c.seed, lm)
	if err := srvRungs(b, lm); err != nil {
		return out, err
	}
	lm["kvserver.net_ns_per_op"] = srvCPU*1e9/ops - lm["kvserver.nosock_ns_per_op"]
	out.metrics = lm
	return out, finishTrace(c, m, lm)
}
