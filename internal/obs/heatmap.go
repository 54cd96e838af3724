package obs

import "sort"

// Heatmap is one structural scrape of a table's physical layout: where the
// entries sit (Regions), how far from home they are (Dists), and scalar
// context (Gauges). Heatmaps are pull-only — collectors walk the slot
// arrays or arena segments at scrape time and have no hot-path presence at
// all, mirroring Source.
type Heatmap struct {
	// Source is the collector's registry name (stamped by Registry.Heatmaps).
	Source string `json:"source"`
	// Kind tags the layout the collector walked: "flat" (open-addressing
	// slot array), "bucket" (one-line buckets + stash), "arena"
	// (log-structured segments).
	Kind string `json:"kind"`
	// Regions is spatial occupancy: the index split into equal consecutive
	// ranges, each cell the live fraction of that range in [0, 1].
	Regions []float64 `json:"region_fill,omitempty"`
	// Dists are structural distributions (probe depth, probe lines, stash
	// chain length, segment utilization) keyed by DistName.
	Dists []HeatDist `json:"dists,omitempty"`
	// Gauges carry scalar context (fill, live, tombstones, ...).
	Gauges map[string]float64 `json:"gauges,omitempty"`
}

// HeatDist is one named distribution of a heatmap: exact (value, count)
// points in ascending value order, plus summary moments.
type HeatDist struct {
	Name   string       `json:"name"`
	Points []HeatBucket `json:"points,omitempty"`
	Count  uint64       `json:"count"`
	Mean   float64      `json:"mean"`
	Max    uint64       `json:"max"`
}

// HeatBucket is one exact point of a HeatDist.
type HeatBucket struct {
	Value uint64 `json:"value"`
	Count uint64 `json:"count"`
}

// DistBuilder accumulates exact value counts during a heatmap walk.
// Collectors run at scrape time, so map allocation is fine here.
type DistBuilder map[uint64]uint64

// Add counts one observation of v.
func (b DistBuilder) Add(v uint64) { b[v]++ }

// Build freezes the builder into a named HeatDist.
func (b DistBuilder) Build(name string) HeatDist {
	d := HeatDist{Name: name}
	vals := make([]uint64, 0, len(b))
	for v := range b {
		vals = append(vals, v)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	var sum float64
	for _, v := range vals {
		n := b[v]
		d.Points = append(d.Points, HeatBucket{Value: v, Count: n})
		d.Count += n
		sum += float64(v) * float64(n)
		d.Max = v
	}
	if d.Count > 0 {
		d.Mean = sum / float64(d.Count)
	}
	return d
}

// heatSource is a registered heatmap collector.
type heatSource struct {
	name    string
	collect func() Heatmap
}

// AddHeatmapSource registers a heatmap collector under name. Like
// AddSource, the last registration under a name wins, so rebuilding a table
// against a shared registry does not accumulate stale collectors.
func (r *Registry) AddHeatmapSource(name string, collect func() Heatmap) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range r.heat {
		if r.heat[i].name == name {
			r.heat[i].collect = collect
			return
		}
	}
	r.heat = append(r.heat, heatSource{name: name, collect: collect})
}

// Heatmaps invokes every registered collector and returns the results with
// their Source names stamped.
func (r *Registry) Heatmaps() []Heatmap {
	r.mu.Lock()
	srcs := append([]heatSource(nil), r.heat...)
	r.mu.Unlock()
	out := make([]Heatmap, 0, len(srcs))
	for _, s := range srcs {
		h := s.collect()
		h.Source = s.name
		out = append(out, h)
	}
	return out
}
