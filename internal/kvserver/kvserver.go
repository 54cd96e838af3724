// Package kvserver is the network front-end over the DRAMHiT table: a TCP
// server speaking RESP (GET/SET/DEL/INCR/PING) and the memcached text
// protocol (get/gets/set/delete/incr/decr, noreply) against one shared
// bucket-layout table.
//
// The design point is that network batching composes with the table's
// prefetch-window batching. Each connection is one goroutine that owns only
// its socket and buffers. Every fully-buffered request is parsed and
// submitted into a table handle's byte pipeline (SubmitBytes — home bucket
// line prefetched at parse time), and before every socket read, which can
// block, the wire batch ends: the handle drains (FlushBytes), goes back to a
// pool of a few per CPU that every connection shares, and the replies go out
// in one write.
// Completions fire in submission order, so each reply is appended to the
// write buffer straight from the completion callback, with no per-op
// channels and no reorder buffer anywhere. The pool, not the connection
// count, bounds the handles' arena writers and pins and their metric shards.
// The server keeps no op metrics of its own: an observed table's handles
// publish them (Config.Obs).
//
// Both protocols share one keyspace. A stored record is a 4-byte
// little-endian flags word (memcached metadata; RESP writes zero) followed
// by the payload, so values round-trip across protocols.
package kvserver

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	idramhit "dramhit/internal/dramhit"
	"dramhit/internal/hugemem"
	"dramhit/internal/mctext"
	"dramhit/internal/obs"
	"dramhit/internal/resp"
	"dramhit/internal/table"
)

// Config parameterizes a server.
type Config struct {
	// RespAddr is the RESP listener address (e.g. ":6379", "127.0.0.1:0");
	// empty disables the RESP listener.
	RespAddr string
	// McAddr is the memcached-text listener address; empty disables it.
	McAddr string
	// Slots sizes the table (0 selects a small default; the bucket layout
	// resizes itself, so this is a starting point, not a capacity cap).
	Slots uint64
	// Obs, when non-nil, exports the serving metrics: the table runs
	// observed. Each pooled worker's table handle publishes its op counts,
	// per-op-class latency (submit to completion, of 1 request in the
	// registry's TraceSampleN; every INCR/DECR is one upsert, a refused one
	// also failed) and hot keys under the table's "dramhit-h<i>" shard,
	// whatever the connection churn, and the table registers its "dramhit"
	// pull source (fill, live, slots, handles) and bucket heatmap. The
	// "server" pull source has what only the server knows: connections,
	// handle_waits, read_buffer_bytes, the arena and compaction gauges and
	// memory.
	Obs *obs.Registry
}

// poolPerProc is the pool's size per GOMAXPROCS. No batch holds a worker over
// socket I/O; on 2 CPUs CI's socket smoke read handle_waits 15-67 in 3 of 3
// runs at 1x, and 0 in 5 of 8 at 2x and 6 of 8 at 4x (EXPERIMENTS.md).
const poolPerProc = 4

// newTable builds the server's table, observed by reg when it is non-nil.
// Tests replace it to serve a table over an arena of tiny segments, whose
// directory a test can fill.
var newTable = func(slots uint64, reg *obs.Registry) *idramhit.Table {
	return idramhit.New(idramhit.Config{Slots: slots, Layout: table.LayoutBucket, Observe: reg})
}

// Server is a running KV front-end. Create with New, stop with Close.
type Server struct {
	tbl *idramhit.Table

	respLn net.Listener
	mcLn   net.Listener

	// The worker pool, a LIFO stack: a lone connection keeps reusing the
	// warmest handle and its arena writer's first segment.
	pmu         sync.Mutex
	pcond       sync.Cond
	free        []*worker
	handles     int          // the pool's size
	handleWaits atomic.Int64 // borrows that found the pool empty

	mu    sync.Mutex
	conns map[net.Conn]struct{}
	wg    sync.WaitGroup

	closed atomic.Bool

	curResp, totResp atomic.Int64
	curMc, totMc     atomic.Int64
	readBuf          atomic.Int64 // read_buffer_bytes: live readers' capacity
}

// New builds the table, binds the configured listeners, and starts serving.
// At least one of RespAddr/McAddr must be set.
func New(cfg Config) (*Server, error) {
	if cfg.RespAddr == "" && cfg.McAddr == "" {
		return nil, fmt.Errorf("kvserver: no listener configured")
	}
	if cfg.Slots == 0 {
		cfg.Slots = 1 << 16
	}
	s := &Server{
		tbl:     newTable(cfg.Slots, cfg.Obs),
		handles: poolPerProc * runtime.GOMAXPROCS(0),
		conns:   make(map[net.Conn]struct{}),
	}
	s.pcond.L = &s.pmu
	s.free = make([]*worker, s.handles)
	for i := range s.free {
		wk := &worker{h: s.tbl.NewHandle()}
		wk.h.OnByteComplete(wk.complete)
		s.free[i] = wk
	}
	if cfg.Obs != nil {
		cfg.Obs.AddSource("server", s.collect)
	}
	if cfg.RespAddr != "" {
		ln, err := net.Listen("tcp", cfg.RespAddr)
		if err != nil {
			return nil, err
		}
		s.respLn = ln
	}
	if cfg.McAddr != "" {
		ln, err := net.Listen("tcp", cfg.McAddr)
		if err != nil {
			if s.respLn != nil {
				s.respLn.Close()
			}
			return nil, err
		}
		s.mcLn = ln
	}
	if s.respLn != nil {
		s.wg.Add(1)
		go s.acceptLoop(s.respLn, false)
	}
	if s.mcLn != nil {
		s.wg.Add(1)
		go s.acceptLoop(s.mcLn, true)
	}
	return s, nil
}

// RespAddr returns the bound RESP listener address ("" if disabled).
func (s *Server) RespAddr() string {
	if s.respLn == nil {
		return ""
	}
	return s.respLn.Addr().String()
}

// McAddr returns the bound memcached listener address ("" if disabled).
func (s *Server) McAddr() string {
	if s.mcLn == nil {
		return ""
	}
	return s.mcLn.Addr().String()
}

// Table exposes the underlying table (tests inspect it directly).
func (s *Server) Table() *idramhit.Table { return s.tbl }

// collect is the "server" pull source: connection gauges and what the
// process's memory is made of — arena_huge_bytes is the record segments
// carved from huge-page slabs, and on Linux mem_anon_huge_bytes is where an
// operator sees whether the index and those slabs got their huge pages. The arena_segments* gauges are the arena's segment directory
// (slots, still-linked segments, segments unlinked by reclamation) and
// arena_pins its registered reclamation pins: what a long-lived server's
// connection churn grows. arena_bytes_used and arena_bytes_dead sum the
// linked segments' appended and retired bytes. read_buffer_bytes is the
// capacity the live connections' protocol readers hold, spares included.
// The pool's size, the "dramhit" source's handles, bounds arena_pins (plus
// one once a compaction pass has run: the pass's writer), and handle_waits
// counts the borrows that found every worker out. The arena_compact_*
// counters show the arena's compaction at work: passes run, record bytes they
// moved, segments their Advances unlinked, and the longest chunk of index
// walk one pass held a writer gate and pin for;
// arena_free_ids is the unlinked segment ids awaiting reuse.
func (s *Server) collect() map[string]float64 {
	ar := s.tbl.Bucket().Arena()
	total, live := ar.Segments()
	cs := ar.CompactStats()
	var used, dead uint64
	for _, st := range ar.SegmentStats() {
		used += st.Used
		dead += st.Dead
	}
	m := map[string]float64{
		"conns_resp_open":            float64(s.curResp.Load()),
		"conns_resp_total":           float64(s.totResp.Load()),
		"conns_mc_open":              float64(s.curMc.Load()),
		"conns_mc_total":             float64(s.totMc.Load()),
		"arena_huge_bytes":           float64(ar.HugeBytes()),
		"arena_segments":             float64(total),
		"arena_segments_live":        float64(live),
		"arena_segments_freed":       float64(ar.Freed()),
		"arena_pins":                 float64(ar.Pins()),
		"arena_bytes_used":           float64(used),
		"arena_bytes_dead":           float64(dead),
		"arena_free_ids":             float64(ar.FreeIDs()),
		"arena_compact_passes":       float64(cs.Passes),
		"arena_compact_moved_bytes":  float64(cs.Moved),
		"arena_compact_unlinked":     float64(cs.Unlinked),
		"arena_compact_chunk_max_us": float64(cs.MaxChunk) / 1e3,
		"read_buffer_bytes":          float64(s.readBuf.Load()),
		"handle_waits":               float64(s.handleWaits.Load()),
	}
	if rss, huge, ok := hugemem.Usage(); ok {
		m["mem_rss_bytes"] = float64(rss)
		m["mem_anon_huge_bytes"] = float64(huge)
	}
	return m
}

// borrow takes the most recently returned worker for one wire batch, waiting
// while every worker is out.
func (s *Server) borrow() *worker {
	s.pmu.Lock()
	defer s.pmu.Unlock()
	if len(s.free) == 0 {
		s.handleWaits.Add(1)
	}
	for len(s.free) == 0 {
		s.pcond.Wait()
	}
	wk := s.free[len(s.free)-1]
	s.free = s.free[:len(s.free)-1]
	return wk
}

// giveBack returns a drained worker to the pool.
func (s *Server) giveBack(wk *worker) {
	s.pmu.Lock()
	s.free = append(s.free, wk)
	s.pmu.Unlock()
	s.pcond.Signal()
}

func (s *Server) acceptLoop(ln net.Listener, mc bool) {
	defer s.wg.Done()
	var delay time.Duration
	for {
		c, err := ln.Accept()
		if err != nil {
			if s.closed.Load() || errors.Is(err, net.ErrClosed) {
				return // listener closed by Close
			}
			// Transient failures (fd exhaustion, handshakes aborted before
			// accept, timeouts) must not permanently kill the listener while
			// the process keeps running and reporting healthy gauges: back
			// off and retry; only unknown errors stop the loop.
			if isTransientAccept(err) {
				if delay == 0 {
					delay = 5 * time.Millisecond
				} else if delay *= 2; delay > time.Second {
					delay = time.Second
				}
				time.Sleep(delay)
				continue
			}
			return
		}
		delay = 0
		// Register and re-check closed under one critical section: Close
		// sweeps s.conns under s.mu after setting closed, so every accepted
		// conn is either in the map for that sweep or closed right here —
		// never registered after the sweep (which would leave Close blocked
		// in wg.Wait until the client went away on its own).
		s.mu.Lock()
		if s.closed.Load() {
			s.mu.Unlock()
			c.Close()
			return
		}
		s.conns[c] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.serveConn(c, mc)
	}
}

// isTransientAccept classifies Accept errors worth retrying.
func isTransientAccept(err error) bool {
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return true
	}
	return errors.Is(err, syscall.EMFILE) || errors.Is(err, syscall.ENFILE) ||
		errors.Is(err, syscall.ECONNABORTED) || errors.Is(err, syscall.EINTR)
}

func (s *Server) serveConn(c net.Conn, mc bool) {
	defer s.wg.Done()
	cn := &conn{s: s, c: c}
	cur, tot := &s.curResp, &s.totResp
	var p protocol
	if mc {
		cur, tot, p = &s.curMc, &s.totMc, mcProto{mctext.NewReader(cn)}
	} else {
		p = respProto{resp.NewReader(cn)}
	}
	cur.Add(1)
	tot.Add(1)
	cn.serve(p)
	cn.setReadCap(0)
	cur.Add(-1)
	c.Close()
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
}

// Close stops the listeners, severs every open connection, and waits for
// the connection goroutines to drain. Safe to call once.
func (s *Server) Close() error {
	// closed is set under s.mu so the sweep below and acceptLoop's
	// register-or-close check are totally ordered: a conn registered before
	// the sweep is swept; one registered after observes closed and is closed
	// by acceptLoop itself.
	s.mu.Lock()
	s.closed.Store(true)
	s.mu.Unlock()
	if s.respLn != nil {
		s.respLn.Close()
	}
	if s.mcLn != nil {
		s.mcLn.Close()
	}
	s.mu.Lock()
	for c := range s.conns {
		c.Close() // unblocks handler goroutines parked in Read
	}
	s.mu.Unlock()
	s.wg.Wait()
	return nil
}
