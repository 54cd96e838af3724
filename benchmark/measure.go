package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"sync"
	"time"
)

// epoch anchors every timestamp of the process; set-up time is counted
// from it.
var epoch = time.Now()

// now is nanoseconds since epoch on the monotonic clock.
func now() int64 { return int64(time.Since(epoch)) }

// worker is one load generator: a goroutine that owns a table handle or a
// connection and a pre-generated op stream.
type worker interface {
	// run executes the next n ops of the stream, verifying every reply. It
	// adds one latency sample per batch (in-process) or per request (over
	// the wire) to h and, when tr is non-nil, wraps each call into the layer
	// under test in a span.
	run(n int, h *hist, tr *tracer)
}

// asWorkers views a slice of concrete workers as []worker.
func asWorkers[T worker](ws []T) []worker {
	out := make([]worker, len(ws))
	for i, w := range ws {
		out[i] = w
	}
	return out
}

// repeatSetup runs setup (everything up to and including the warm-up) reps
// times and returns the median duration in seconds; the last repetition's
// state is the one measured. Before each repetition, release drops the
// previous one's state and its memory is returned to the OS, so it cannot
// add to the peak RSS.
func repeatSetup(reps int, release func(), setup func() error) (float64, error) {
	var took []float64
	for i := 0; i < reps; i++ {
		release()
		debug.FreeOSMemory()
		t0 := now()
		if err := setup(); err != nil {
			return 0, err
		}
		took = append(took, seconds(now()-t0))
	}
	return median(took), nil
}

// phase is the shape of a measured phase: a warm-up pass, then many short
// windows of a fixed op count. Workers start each window together, so a
// window's rate is always measured with every worker running.
type phase struct {
	warmOps   int
	windows   int
	windowOps int // per worker
	// traceOdd records spans in every odd window, which pairs each traced
	// window with an untraced neighbour under the same interference.
	traceOdd bool
	// maxSeconds stops the phase early on a box so slow that the fixed op
	// count would overrun the driver's limits; the run then reports fewer
	// windows.
	maxSeconds float64
}

func warmUp(ws []worker, ops int) {
	var wg sync.WaitGroup
	for _, w := range ws {
		wg.Add(1)
		go func(w worker) {
			defer wg.Done()
			var h hist
			w.run(ops, &h, nil)
		}(w)
	}
	wg.Wait()
}

// measure runs the windows. cpu reads the cumulative CPU nanoseconds of the
// process under test; it is sampled between windows, while the workers
// wait. tracers may be nil when p.traceOdd is false.
func measure(ws []worker, p phase, cpu func() int64, tracers []*tracer) []windowRec {
	start := make([]chan bool, len(ws))
	ns := make([]int64, len(ws))
	hists := make([]hist, len(ws))
	var done sync.WaitGroup
	for i := range ws {
		start[i] = make(chan bool)
		go func(i int) {
			for traced := range start[i] {
				var tr *tracer
				if traced {
					tr = tracers[i]
				}
				hists[i].reset()
				t0 := now()
				ws[i].run(p.windowOps, &hists[i], tr)
				ns[i] = now() - t0
				done.Done()
			}
		}(i)
	}
	recs := make([]windowRec, 0, p.windows)
	began := now()
	for k := 0; k < p.windows; k++ {
		if p.maxSeconds > 0 && seconds(now()-began) > p.maxSeconds {
			fmt.Fprintf(os.Stderr, "benchmark: measured phase stopped after %d of %d windows (over %.0f s)\n",
				k, p.windows, p.maxSeconds)
			break
		}
		rec := windowRec{ops: p.windowOps, workers: len(ws), traced: p.traceOdd && k%2 == 1}
		c0 := cpu()
		done.Add(len(ws))
		for i := range ws {
			start[i] <- rec.traced
		}
		done.Wait()
		rec.cpuNS = cpu() - c0
		all := &hists[0]
		for i := range ws {
			rec.ns = max(rec.ns, ns[i])
			if i > 0 {
				all.merge(&hists[i])
			}
		}
		rec.p50, rec.p99, rec.max = all.percentile(0.5), all.percentile(0.99), all.max
		recs = append(recs, rec)
	}
	for i := range ws {
		close(start[i])
	}
	return recs
}

// Span kinds. A batch span is the parent of the calls made for that batch;
// its self time is the harness's own work (building requests, verifying).
// A read span names the batch that caused it as its parent but starts after
// that span has ended, because a connection keeps batches in flight.
type spanKind uint8

const (
	spBatch spanKind = iota
	spSubmit
	spFlush
	spWrite
	spRead
	nSpanKinds
)

var spanNames = [nSpanKinds]string{"batch", "submit", "flush", "write", "read"}

// span is one recorded call: which worker and batch it belongs to, and the
// span that caused it (-1 for a batch).
type span struct {
	Name   string `json:"name"`
	Worker int    `json:"worker"`
	Batch  uint32 `json:"batch"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// maxSpans bounds the spans one worker keeps for the trace file; totals
// keep accumulating past it, so self times cover every traced batch.
const maxSpans = 1 << 15

// tracer holds one worker's spans in memory until the run ends.
type tracer struct {
	worker int
	spans  []span
	total  [nSpanKinds]int64
	batch  uint32
}

type spanTok struct {
	kind  spanKind
	id    int32
	start int64
}

func newTracer(worker int) *tracer {
	return &tracer{worker: worker, spans: make([]span, 0, maxSpans)}
}

// begin opens a span under parent (-1 for none).
func (t *tracer) begin(k spanKind, parent int32) spanTok {
	tok := spanTok{kind: k, id: -1, start: now()}
	if k == spBatch {
		t.batch++
	}
	if len(t.spans) < maxSpans {
		tok.id = int32(len(t.spans))
		t.spans = append(t.spans, span{
			Name: spanNames[k], Worker: t.worker, Batch: t.batch,
			ID: tok.id, Parent: parent, Start: tok.start,
		})
	}
	return tok
}

func (t *tracer) end(tok spanTok) {
	end := now()
	t.total[tok.kind] += end - tok.start
	if tok.id >= 0 {
		t.spans[tok.id].End = end
	}
}

// selfNS is the time spent in spans of kind k outside the child spans they
// enclose, summed over tracers. Only batch spans enclose children: submit,
// flush and write.
func selfNS(ts []*tracer, k spanKind) int64 {
	var ns int64
	for _, t := range ts {
		ns += t.total[k]
		if k == spBatch {
			ns -= t.total[spSubmit] + t.total[spFlush] + t.total[spWrite]
		}
	}
	return ns
}

// traceFile is what a traced run leaves in benchmark/out.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     uint64             `json:"seed"`
	Env      map[string]string  `json:"env"`
	Metrics  map[string]float64 `json:"metrics"`
	Windows  []windowJSON       `json:"windows"`
	Spans    []span             `json:"spans"`
}

// windowJSON is one window of the trace file.
type windowJSON struct {
	Ops    int     `json:"ops"`
	NS     int64   `json:"ns"`
	CPUNS  int64   `json:"cpu_ns"`
	P50    float64 `json:"lat_p50_ns"`
	P99    float64 `json:"lat_p99_ns"`
	Traced bool    `json:"traced"`
}

func writeTrace(dir string, f traceFile, recs []windowRec, ts []*tracer) error {
	for _, w := range recs {
		f.Windows = append(f.Windows, windowJSON{w.totalOps(), w.ns, w.cpuNS, w.p50, w.p99, w.traced})
	}
	for _, t := range ts {
		f.Spans = append(f.Spans, t.spans...)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(f)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, f.Workload+".trace.json"), b, 0o644)
}
