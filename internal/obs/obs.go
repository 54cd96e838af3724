// Package obs is the unified observability layer: sharded per-worker
// counters (cache-line padded, no false sharing), mergeable log-bucketed
// histograms, pipeline gauges, a sampled per-request lifecycle trace ring,
// and the HTTP surface (Prometheus text format, expvar, pprof) that exposes
// them from a live run.
//
// The layer is strictly opt-in: a table built without a Registry executes
// bit-identically to an uninstrumented one and allocates nothing extra on
// the hot path. With a Registry attached, hot paths touch only their own
// padded Worker shard (uncontended atomics, published at batch boundaries),
// so observing adds no shared write to a request's path.
package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Counter indices into a Worker's shard. Keeping counters index-addressed
// (rather than one field each) lets the Prometheus renderer, the expvar
// snapshot and the merge loop iterate them uniformly.
const (
	// Completed operations by kind.
	CGets = iota
	CPuts
	CUpserts
	CDeletes
	// CHits counts Gets that found their key and Deletes that removed one.
	CHits
	// CFailed counts Puts/Upserts rejected because the table was full.
	CFailed
	// CReprobes counts probe line crossings (walked into the prefetched
	// pair's second line, or re-enqueued behind a fresh prefetch).
	CReprobes
	// CLines counts cache lines touched.
	CLines
	// CKeyLines counts line visits whose key lanes were consulted.
	CKeyLines
	// CCombinedUpserts counts Upserts a DRAMHiT-P WriteHandle folded into a
	// held same-key entry instead of delegating.
	CCombinedUpserts
	// CCASAttempts counts atomic RMW/store attempts against slot words.
	CCASAttempts
	// CQueueSends counts delegated messages sent (DRAMHiT-P write path).
	CQueueSends
	// CChainHops counts chain-node traversals (chtkc).
	CChainHops

	NumCounters
)

// CounterNames maps counter indices to their metric names.
var CounterNames = [NumCounters]string{
	"gets", "puts", "upserts", "deletes", "hits", "failed",
	"reprobes", "lines", "keylines",
	"combined_upserts", "cas_attempts", "queue_sends", "chain_hops",
}

// Gauge indices into a Worker's shard.
const (
	// GWindowOcc is the prefetch-window occupancy at the last publish.
	GWindowOcc = iota
	// GWindowMax is the maximum window occupancy observed.
	GWindowMax
	// GQueueDepth is the delegation-queue backlog at the last publish.
	GQueueDepth

	NumGauges
)

// GaugeNames maps gauge indices to their metric names.
var GaugeNames = [NumGauges]string{
	"window_occupancy", "window_occupancy_max", "queue_depth",
}

// pad is one cache line of separation; Worker embeds it around its hot
// words so two workers (or a worker and the registry spine) never share a
// line.
type pad [64]byte

// Worker is one hot path's private shard: a fixed array of counters and
// gauges plus a latency histogram, all updated with uncontended atomics by
// the owning goroutine and read concurrently by the scraper. Create with
// Registry.Worker; never share one Worker between goroutines.
type Worker struct {
	name string
	_    pad
	c    [NumCounters]atomic.Uint64
	g    [NumGauges]atomic.Uint64
	_    pad
	// Lat is the worker's latency histogram (nanoseconds by convention).
	Lat Histogram
	// Op are per-op-class latency histograms (nanoseconds), indexed by the
	// OpGetHit..OpDeleteMiss classes. A table handle records the requests it
	// samples (1 in the registry's TraceSampleN) into them.
	Op [NumOpClasses]Histogram
	// Hot is the worker's hot-key sketch shard, non-nil iff the worker was
	// made by HotWorker. Single-writer, like the counters.
	Hot *TopK
}

// Name returns the worker's registry name.
func (w *Worker) Name() string { return w.name }

// Inc adds 1 to counter i.
func (w *Worker) Inc(i int) { w.c[i].Add(1) }

// Add adds n to counter i.
func (w *Worker) Add(i int, n uint64) { w.c[i].Add(n) }

// Store publishes an absolute counter value (for hot paths that accumulate
// in plain handle-local fields and publish at batch boundaries).
func (w *Worker) Store(i int, v uint64) { w.c[i].Store(v) }

// Counter returns counter i's current value.
func (w *Worker) Counter(i int) uint64 { return w.c[i].Load() }

// SetGauge publishes gauge g.
func (w *Worker) SetGauge(g int, v uint64) { w.g[g].Store(v) }

// MaxGauge raises gauge g to v if v is larger. Single-writer (the owning
// goroutine), so load-then-store suffices.
func (w *Worker) MaxGauge(g int, v uint64) {
	if v > w.g[g].Load() {
		w.g[g].Store(v)
	}
}

// Gauge returns gauge g's current value.
func (w *Worker) Gauge(g int) uint64 { return w.g[g].Load() }

// ShardedCounter is a counter striped over cache-line-padded cells for hot
// paths without a per-goroutine handle (the synchronous baselines): callers
// pass any well-distributed shard hint (home slot index, key hash) and the
// increment lands on one of the padded cells, so concurrent writers rarely
// collide on a line.
type ShardedCounter struct {
	cells []paddedCell
	mask  uint64
}

type paddedCell struct {
	v atomic.Uint64
	_ [7]uint64
}

// NewShardedCounter creates a counter with the given number of stripes
// (rounded up to a power of two, minimum 8).
func NewShardedCounter(shards int) *ShardedCounter {
	n := 8
	for n < shards {
		n <<= 1
	}
	return &ShardedCounter{cells: make([]paddedCell, n), mask: uint64(n - 1)}
}

// Add adds n on the stripe selected by hint.
func (c *ShardedCounter) Add(hint, n uint64) { c.cells[hint&c.mask].v.Add(n) }

// Inc adds 1 on the stripe selected by hint.
func (c *ShardedCounter) Inc(hint uint64) { c.cells[hint&c.mask].v.Add(1) }

// Total sums all stripes.
func (c *ShardedCounter) Total() uint64 {
	var t uint64
	for i := range c.cells {
		t += c.cells[i].v.Load()
	}
	return t
}

// Source is a pull-collected metric set: table-level aggregates (fill
// factor, live entries, window) that are cheap to compute at scrape time
// and have no hot-path presence at all.
type Source struct {
	Name    string
	Collect func() map[string]float64
}

// Registry is the process-wide sink: workers register shards, tables
// register pull sources, and the HTTP layer renders everything. All methods
// are safe for concurrent use.
type Registry struct {
	mu      sync.Mutex
	workers []*Worker
	sources []Source
	heat    []heatSource
	trace   *TraceRing
	sampleN int
	start   time.Time
}

// DefaultTraceCap is the default lifecycle-trace ring capacity (events).
const DefaultTraceCap = 4096

// DefaultTraceSample is the default request sampling rate: a table handle
// samples one request in every DefaultTraceSample, recording its op latency
// and, where its path traces, its lifecycle.
const DefaultTraceSample = 256

// New creates a registry with the default trace ring (DefaultTraceCap
// events, 1-in-DefaultTraceSample request sampling).
func New() *Registry { return NewWith(DefaultTraceCap, DefaultTraceSample) }

// NewWith creates a registry with an explicit trace capacity and sampling
// rate. traceCap 0 disables lifecycle tracing entirely (sampled requests
// still record their latency); sampleN ≤ 1 samples every request.
func NewWith(traceCap, sampleN int) *Registry {
	r := &Registry{sampleN: sampleN, start: time.Now()}
	if r.sampleN < 1 {
		r.sampleN = 1
	}
	if traceCap > 0 {
		r.trace = NewTraceRing(traceCap)
	}
	return r
}

// Worker allocates and registers a new padded shard under name. Names need
// not be unique; the scraper labels each shard with its own name.
func (r *Registry) Worker(name string) *Worker { return r.add(&Worker{name: name}) }

// DefaultHotKeyCap is a hot-key sketch shard's budget (monitored keys).
const DefaultHotKeyCap = 1024

// HotWorker is Worker for a hot path that offers its keys: the shard also
// carries a hot-key sketch (Hot) of DefaultHotKeyCap. A table handle takes
// one; shards that never offer a key keep Hot nil.
func (r *Registry) HotWorker(name string) *Worker {
	return r.add(&Worker{name: name, Hot: NewTopK(DefaultHotKeyCap)})
}

func (r *Registry) add(w *Worker) *Worker {
	r.mu.Lock()
	r.workers = append(r.workers, w)
	r.mu.Unlock()
	return w
}

// TopKeys merges every worker's hot-key shard and returns the top k keys by
// estimated count (k ≤ 0 keeps all monitored keys).
func (r *Registry) TopKeys(k int) []TopKItem {
	var shards [][]TopKItem
	for _, w := range r.Workers() {
		if w.Hot != nil && w.Hot.Count() > 0 {
			shards = append(shards, w.Hot.Snapshot())
		}
	}
	if len(shards) == 0 {
		return nil
	}
	return MergeTopK(k, shards...)
}

// AddSource registers a pull-collected metric set.
func (r *Registry) AddSource(name string, collect func() map[string]float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	// Last registration wins: a name identifies a subsystem, and rebuilding
	// the subsystem (a benchmark harness attaching table after table to one
	// shared registry) must not accumulate stale collectors or duplicate
	// Prometheus label sets.
	for i := range r.sources {
		if r.sources[i].Name == name {
			r.sources[i].Collect = collect
			return
		}
	}
	r.sources = append(r.sources, Source{Name: name, Collect: collect})
}

// Trace returns the lifecycle trace ring, or nil when tracing is disabled.
func (r *Registry) Trace() *TraceRing { return r.trace }

// TraceSampleN returns the request sampling rate (1-in-N) of op latency and
// the lifecycle trace.
func (r *Registry) TraceSampleN() int { return r.sampleN }

// Workers returns the registered shards (snapshot of the slice; the shards
// themselves keep updating).
func (r *Registry) Workers() []*Worker {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*Worker(nil), r.workers...)
}

// Sources returns the registered pull sources.
func (r *Registry) Sources() []Source {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Source(nil), r.sources...)
}

// WorkerSnapshot is one shard's frozen state.
type WorkerSnapshot struct {
	Name     string            `json:"name"`
	Counters map[string]uint64 `json:"counters"`
	Gauges   map[string]uint64 `json:"gauges"`
	Latency  HistSnapshot      `json:"latency_ns"`
	// OpLatency holds per-op-class latency summaries for classes with
	// recorded samples (key: OpClassNames value).
	OpLatency map[string]HistSnapshot `json:"op_latency_ns,omitempty"`
}

// Snapshot is the registry's frozen state: per-worker shards, summed
// totals, pull-source gauges and a merged latency summary.
type Snapshot struct {
	UptimeSeconds float64                       `json:"uptime_seconds"`
	Totals        map[string]uint64             `json:"totals"`
	Workers       []WorkerSnapshot              `json:"workers"`
	Sources       map[string]map[string]float64 `json:"sources"`
	Latency       HistSnapshot                  `json:"latency_ns"`
	// OpLatency merges every worker's per-op-class histograms (classes with
	// samples only); HotKeys is the merged top-16 hot-key ranking.
	OpLatency   map[string]HistSnapshot `json:"op_latency_ns,omitempty"`
	HotKeys     []TopKItem              `json:"hot_keys,omitempty"`
	TraceEvents uint64                  `json:"trace_events"`
}

// TakeSnapshot freezes the registry's current state (counters keep moving;
// each value is an atomic read).
func (r *Registry) TakeSnapshot() Snapshot {
	s := Snapshot{
		UptimeSeconds: time.Since(r.start).Seconds(),
		Totals:        map[string]uint64{},
		Sources:       map[string]map[string]float64{},
	}
	var lat Histogram
	classLat := make([]*Histogram, NumOpClasses)
	for _, w := range r.Workers() {
		ws := WorkerSnapshot{
			Name:     w.name,
			Counters: map[string]uint64{},
			Gauges:   map[string]uint64{},
			Latency:  w.Lat.Snapshot(),
		}
		for i := 0; i < NumCounters; i++ {
			v := w.Counter(i)
			ws.Counters[CounterNames[i]] = v
			s.Totals[CounterNames[i]] += v
		}
		for g := 0; g < NumGauges; g++ {
			ws.Gauges[GaugeNames[g]] = w.Gauge(g)
		}
		lat.Merge(&w.Lat)
		for c := 0; c < NumOpClasses; c++ {
			if w.Op[c].Count() == 0 {
				continue
			}
			if ws.OpLatency == nil {
				ws.OpLatency = map[string]HistSnapshot{}
			}
			ws.OpLatency[OpClassNames[c]] = w.Op[c].Snapshot()
			if classLat[c] == nil {
				classLat[c] = &Histogram{}
			}
			classLat[c].Merge(&w.Op[c])
		}
		s.Workers = append(s.Workers, ws)
	}
	s.Latency = lat.Snapshot()
	for c, h := range classLat {
		if h == nil {
			continue
		}
		if s.OpLatency == nil {
			s.OpLatency = map[string]HistSnapshot{}
		}
		s.OpLatency[OpClassNames[c]] = h.Snapshot()
	}
	s.HotKeys = r.TopKeys(16)
	for _, src := range r.Sources() {
		s.Sources[src.Name] = src.Collect()
	}
	if r.trace != nil {
		s.TraceEvents = r.trace.Recorded()
	}
	return s
}
