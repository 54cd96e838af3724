package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"

	"dramhit/internal/dramhit"
	"dramhit/internal/mctext"
	"dramhit/internal/resp"
	"dramhit/internal/table"
)

// recording is a prefix of one connection's traffic, regenerated from its
// stream: the request bytes as they went on the wire, batch by batch, what
// the oracle expects for each, and (once the encode rung ran) the exact
// reply bytes a correct server sends back.
type recording struct {
	req      []byte
	reqEnds  []int // end offset of each batch in req
	exp      []kvExpect
	reply    []byte
	replyEnd []int
}

func record(sz srvSizes, ks keyspace, w int, stream []uint32, ops int) *recording {
	cw := newConnWorker(sz, ks, w, stream, nil)
	rec := &recording{}
	for done := 0; done < ops; done += sz.batch {
		for i := 0; i < sz.batch; i++ {
			e := cw.next()
			rec.exp = append(rec.exp, e)
			rec.req = cw.appendRequest(rec.req, e)
		}
		rec.reqEnds = append(rec.reqEnds, len(rec.req))
	}
	return rec
}

// batchReader hands out a recording one wire batch per Read, the way a
// socket delivers one pipelined burst per read call.
type batchReader struct {
	rec   *recording
	batch int
	off   int
}

func (b *batchReader) Read(p []byte) (int, error) {
	if b.batch == len(b.rec.reqEnds) {
		return 0, io.EOF
	}
	n := copy(p, b.rec.req[b.off:b.rec.reqEnds[b.batch]])
	if b.off += n; b.off == b.rec.reqEnds[b.batch] {
		b.batch++
	}
	return n, nil
}

// The server stores a 4-byte flags word ahead of every payload; the
// harness-side composition does the same so both hold the same records.
var zeroFlags = []byte{0, 0, 0, 0}

// encodeRung renders the expected reply of every recorded op through the
// codec's Append functions, timing only those calls (payloads are generated
// first), and keeps the bytes as the oracle for the no-socket rung.
func encodeRung(sz srvSizes, ks keyspace, rec *recording) (ns int64) {
	var out, vals, key []byte
	vlen := func(e kvExpect) int { return valueLen(e.idx, e.ver, sz.minVal, sz.maxVal) }
	for b := 0; b < len(rec.exp); b += sz.batch {
		batch := rec.exp[b : b+sz.batch]
		vals = vals[:0]
		for _, e := range batch {
			if e.op == kvGet && e.found {
				vals = ks.appendValue(vals, e.idx, e.ver, vlen(e))
			}
		}
		out = out[:0]
		v := vals
		t0 := now()
		for _, e := range batch {
			var payload []byte
			if e.op == kvGet && e.found {
				n := vlen(e)
				payload, v = v[:n], v[n:]
			}
			if sz.mc {
				key = ks.appendKey(key[:0], e.idx)
			}
			out = appendReply(out, sz.mc, e.op, e.found, key, payload)
		}
		ns += now() - t0
		rec.reply = append(rec.reply, out...)
		rec.replyEnd = append(rec.replyEnd, len(rec.reply))
	}
	return ns
}

// appendReply is the reply the server's completion path renders for one op.
func appendReply(out []byte, mc bool, op uint32, found bool, key, payload []byte) []byte {
	if mc {
		switch {
		case op == kvGet && found:
			return mctext.AppendEnd(mctext.AppendValue(out, key, 0, payload))
		case op == kvGet:
			return mctext.AppendEnd(out)
		case op == kvSet:
			return mctext.AppendLine(out, "STORED")
		case found:
			return mctext.AppendLine(out, "DELETED")
		default:
			return mctext.AppendLine(out, "NOT_FOUND")
		}
	}
	switch {
	case op == kvGet && found:
		return resp.AppendBulk(out, payload)
	case op == kvGet:
		return resp.AppendNil(out)
	case op == kvSet:
		return resp.AppendSimple(out, "OK")
	case found:
		return resp.AppendInt(out, 1)
	default:
		return resp.AppendInt(out, 0)
	}
}

// nosock is rung 3 of the stack budget: the serving path of one connection
// with the sockets taken away. The harness composes the same public pieces
// the server does — protocol reader, byte pipeline, completion callback,
// reply encoder — over recorded request bytes.
type nosock struct {
	mc   bool
	h    *dramhit.Handle
	rec  *recording
	out  []byte
	vbuf []byte
	meta []nosockMeta // submit-order reply contexts; completions are FIFO
	mi   int

	batch   int
	ns      int64
	started int64
	err     error
}

type nosockMeta struct {
	op  uint32
	key []byte
}

func (s *nosock) complete(cc dramhit.ByteCompletion) {
	m := s.meta[s.mi]
	s.mi++
	var payload []byte
	if cc.Op == table.Get && cc.Found && len(cc.Value) >= len(zeroFlags) {
		payload = cc.Value[len(zeroFlags):]
	}
	s.out = appendReply(s.out, s.mc, m.op, cc.Found, m.key, payload)
}

func (s *nosock) submit(op uint32, key, value []byte) {
	s.meta = append(s.meta, nosockMeta{op, key})
	if op == kvSet {
		start := len(s.vbuf)
		s.vbuf = append(append(s.vbuf, zeroFlags...), value...)
		value = s.vbuf[start:]
	}
	s.h.SubmitBytes(kvOps[op], 0, key, value)
}

// endBatch is the server's flushWrite without the write: drain the
// pipeline, then (clock stopped) compare the replies with the oracle's.
func (s *nosock) endBatch() {
	if len(s.meta) == 0 {
		return
	}
	s.h.FlushBytes()
	s.ns += now() - s.started
	lo := 0
	if s.batch > 0 {
		lo = s.rec.replyEnd[s.batch-1]
	}
	if !bytes.Equal(s.out, s.rec.reply[lo:s.rec.replyEnd[s.batch]]) && s.err == nil {
		s.err = fmt.Errorf("no-socket rung: batch %d replies differ from the oracle's", s.batch)
	}
	s.batch++
	s.out, s.vbuf, s.meta, s.mi = s.out[:0], s.vbuf[:0], s.meta[:0], 0
	s.started = now()
}

// wireReader is the server side of one protocol: the codec's reader behind
// the three calls a connection loop makes.
type wireReader struct {
	next     func() (op uint32, key, value []byte, err error) // io.EOF at the end
	buffered func() bool
	release  func()
}

var errUnexpected = errors.New("unexpected request in the recorded traffic")

func newWireReader(mc bool, src io.Reader) wireReader {
	if mc {
		r := mctext.NewReader(src)
		return wireReader{buffered: r.Buffered, release: r.Release,
			next: func() (uint32, []byte, []byte, error) {
				req, err := r.ReadRequest()
				switch {
				case err != nil:
					return 0, nil, nil, err
				case req.Verb == mctext.Get && len(req.Keys) == 1:
					return kvGet, req.Keys[0], nil, nil
				case req.Verb == mctext.Set:
					return kvSet, req.Key, req.Data, nil
				case req.Verb == mctext.Delete:
					return kvDel, req.Key, nil, nil
				}
				return 0, nil, nil, errUnexpected
			}}
	}
	r := resp.NewReader(src)
	return wireReader{buffered: r.Buffered, release: r.Release,
		next: func() (uint32, []byte, []byte, error) {
			cmd, err := r.ReadCommand()
			if err != nil {
				return 0, nil, nil, err
			}
			switch verb := string(cmd.Args[0]); {
			case verb == "GET" && len(cmd.Args) == 2:
				return kvGet, cmd.Args[1], nil, nil
			case verb == "SET" && len(cmd.Args) == 3:
				return kvSet, cmd.Args[1], cmd.Args[2], nil
			case verb == "DEL" && len(cmd.Args) == 2:
				return kvDel, cmd.Args[1], nil, nil
			}
			return 0, nil, nil, errUnexpected
		}}
}

// run is the server's connection loop: parse everything that is buffered
// into the pipeline, end the batch when the input would block.
func (s *nosock) run() error {
	r := newWireReader(s.mc, &batchReader{rec: s.rec})
	s.started = now()
	for {
		if !r.buffered() {
			s.endBatch()
			r.release()
		}
		op, key, value, err := r.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("no-socket rung: %w", err)
		}
		s.submit(op, key, value)
	}
	s.endBatch()
	if s.err == nil && s.batch != len(s.rec.reqEnds) {
		s.err = fmt.Errorf("no-socket rung: served %d of %d batches", s.batch, len(s.rec.reqEnds))
	}
	return s.err
}

// parseRung runs recorded request bytes through the codec's reader alone,
// releasing its arena once per wire batch as the server does.
func parseRung(sz srvSizes, rec *recording) (ns int64, allocs uint64, err error) {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 := now()
	r := newWireReader(sz.mc, bytes.NewReader(rec.req))
	n := 0
	for ; ; n++ {
		if _, _, _, err = r.next(); err != nil {
			break
		}
		if n%sz.batch == sz.batch-1 {
			r.release()
		}
	}
	ns = now() - t0
	runtime.ReadMemStats(&ms1)
	if err != io.EOF || n != len(rec.exp) {
		return 0, 0, fmt.Errorf("parse rung: parsed %d of %d requests (%v)", n, len(rec.exp), err)
	}
	return ns, ms1.Mallocs - ms0.Mallocs, nil
}

// srvRungs replays a tenth of the measured traffic through the codec and
// through the no-socket composition of the serving path.
func srvRungs(b *srvBench, m map[string]float64) error {
	sz := b.sz
	ops := sz.phase.windows * sz.phase.windowOps / 10 / sz.batch * sz.batch
	recs := make([]*recording, sz.workers)
	var encodeNS int64
	for w := range recs {
		recs[w] = record(sz, b.ks, w, b.workers[w].stream, ops)
		encodeNS += encodeRung(sz, b.ks, recs[w])
	}
	codec := "resp."
	if sz.mc {
		codec = "mctext."
	}
	m[codec+"encode_ns_per_op"] = float64(encodeNS) / float64(sz.workers*ops)

	parseNS, allocs, err := parseRung(sz, recs[0])
	if err != nil {
		return err
	}
	m[codec+"parse_ns_per_op"] = float64(parseNS) / float64(ops)
	if !sz.mc {
		m["resp.parse_allocs_per_op"] = float64(allocs) / float64(ops)
	}

	tbl := dramhit.New(dramhit.Config{Slots: sz.slots, Layout: table.LayoutBucket})
	socks := make([]*nosock, sz.workers)
	for w := range socks {
		socks[w] = &nosock{mc: sz.mc, h: tbl.NewHandle(), rec: recs[w]}
		socks[w].h.OnByteComplete(socks[w].complete)
	}
	stored := make([][]byte, sz.workers) // one scratch record per concurrent loader
	preloadKV(sz.kvSizes, b.ks, func(w int, k, v []byte) {
		stored[w] = append(append(stored[w][:0], zeroFlags...), v...)
		socks[w].h.PutBytes(k, stored[w])
	})
	ar := tbl.Bucket().Arena()
	appended0, _ := arenaBytes(ar)
	errs := make([]error, sz.workers)
	var wg sync.WaitGroup
	for w, s := range socks {
		wg.Add(1)
		go func(w int, s *nosock) {
			defer wg.Done()
			errs[w] = s.run()
		}(w, s)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	var ns int64
	for _, s := range socks {
		ns += s.ns
	}
	m["kvserver.nosock_ns_per_op"] = float64(ns) / float64(sz.workers*ops)
	// The server's arena is out of reach from outside its process; this
	// table received the same records in the same order, so its arena
	// counters are the server's for this stretch of traffic.
	arenaMetrics(ar, appended0, sz.workers*ops, m)
	return nil
}
