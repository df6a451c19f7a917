package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Registry is a process-wide store of named counters, gauges and
// histograms. Metrics are created on first access and live for the
// registry's lifetime; all operations are safe for concurrent use.
//
// Like trace.Tracer, the registry has a nil fast path end to end: accessor
// methods on a nil *Registry return nil metrics, and every metric method is
// a no-op on a nil receiver — so instrumented hot paths cost a pointer test
// when observability is off.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it if needed (nil on a nil
// registry).
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it if needed (nil on a nil
// registry).
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it if needed (nil on a
// nil registry).
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// ---------------------------------------------------------------------------
// Counter

// Counter is a monotonically increasing int64. The zero value is ready to
// use; a nil *Counter ignores all updates.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Load returns the current value (0 on nil).
func (c *Counter) Load() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// ---------------------------------------------------------------------------
// Gauge

// Gauge is a float64 that can go up and down (current loss, epoch seconds).
// The zero value is ready to use; a nil *Gauge ignores all updates.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Load returns the current value (0 on nil).
func (g *Gauge) Load() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// ---------------------------------------------------------------------------
// Histogram

// histBuckets is the number of log buckets: bucket 0 holds values <= 0 and
// bucket i (1..64) holds values v with bits.Len64(v) == i, i.e. the range
// [2^(i-1), 2^i - 1]. Powers of two give ~2x resolution over the full int64
// range with a branch-free index — the classic log-bucket latency histogram.
const histBuckets = 65

// Histogram accumulates int64 observations (latencies in nanoseconds by
// convention) into log-spaced buckets. All methods are lock-free; the zero
// value is ready to use and a nil *Histogram ignores all updates.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	buckets [histBuckets]atomic.Int64
	ex      atomic.Pointer[exemplar]
}

// exemplar ties the largest observed value to the trace span that produced
// it — the OpenMetrics idea: a p99 outlier in the latency histogram carries
// the span ID of an actual slow request, so the histogram links back into
// the Perfetto timeline.
type exemplar struct {
	val   int64
	trace uint64
}

// bucketOf returns the bucket index for v.
func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	return bits.Len64(uint64(v))
}

// BucketBounds returns the closed value range [lo, hi] covered by bucket i.
// Bucket 0 is the <= 0 underflow bucket.
func BucketBounds(i int) (lo, hi int64) {
	if i <= 0 {
		return math.MinInt64, 0
	}
	lo = int64(1) << (i - 1)
	if i == 64 {
		return lo, math.MaxInt64
	}
	return lo, int64(1)<<i - 1
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[bucketOf(v)].Add(1)
}

// ObserveExemplar records one value and, when traceID is nonzero and v is
// the largest value seen so far, retains (v, traceID) as the histogram's
// exemplar. Lock-free: a CAS loop that only replaces a smaller exemplar.
func (h *Histogram) ObserveExemplar(v int64, traceID uint64) {
	if h == nil {
		return
	}
	h.Observe(v)
	h.ObserveExemplarOnly(v, traceID)
}

// Exemplar returns the worst-case observation and its trace span ID (zeros
// when none was recorded).
func (h *Histogram) Exemplar() (v int64, traceID uint64) {
	if h == nil {
		return 0, 0
	}
	if e := h.ex.Load(); e != nil {
		return e.val, e.trace
	}
	return 0, 0
}

// ObserveSince records the nanoseconds elapsed since t0 — the idiom for
// latency sites: defer-free, one time.Now at the start and one here.
func (h *Histogram) ObserveSince(t0 time.Time) {
	if h == nil {
		return
	}
	h.Observe(time.Since(t0).Nanoseconds())
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Mean returns the average observed value (0 with no observations).
func (h *Histogram) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return float64(h.Sum()) / float64(n)
}

// Quantile estimates the q-quantile (0 <= q <= 1) by linear interpolation
// within the target log bucket. The estimate is exact to within the bucket's
// 2x resolution; with no observations it returns 0.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	var buckets [histBuckets]int64
	for i := range buckets {
		buckets[i] = h.buckets[i].Load()
	}
	return quantile(buckets[:], total, q)
}

// quantile is Quantile over bucket counts holding total observations — a
// live histogram's or a snapshot's.
func quantile(buckets []int64, total int64, q float64) float64 {
	if total == 0 {
		return 0
	}
	q = min(max(q, 0), 1)
	target := q * float64(total)
	var cum float64
	for i, c := range buckets {
		n := float64(c)
		if n == 0 {
			continue
		}
		if cum+n >= target {
			if i == 0 {
				return 0
			}
			lo, hi := BucketBounds(i)
			frac := (target - cum) / n
			return float64(lo) + frac*float64(hi-lo)
		}
		cum += n
	}
	// Racing observations moved the total; fall back to the top bucket.
	for i := len(buckets) - 1; i > 0; i-- {
		if buckets[i] > 0 {
			_, hi := BucketBounds(i)
			return float64(hi)
		}
	}
	return 0
}

// bucketCount returns the observation count of bucket i (tests).
func (h *Histogram) bucketCount(i int) int64 {
	if h == nil || i < 0 || i >= histBuckets {
		return 0
	}
	return h.buckets[i].Load()
}

// ---------------------------------------------------------------------------
// Export

// histView is the WriteJSON/WriteText shape of one histogram: its counts
// and the quantiles derived from its buckets.
type histView struct {
	Count   int64   `json:"count"`
	Sum     int64   `json:"sum"`
	Mean    float64 `json:"mean"`
	P50     float64 `json:"p50"`
	P90     float64 `json:"p90"`
	P99     float64 `json:"p99"`
	MaxEst  float64 `json:"max_est"`
	ExVal   int64   `json:"exemplar_value,omitempty"`
	ExTrace uint64  `json:"exemplar_trace,omitempty"`
}

func (hs HistogramSnapshot) view() histView {
	v := histView{
		Count:   hs.Count,
		Sum:     hs.Sum,
		P50:     quantile(hs.Buckets, hs.Count, 0.5),
		P90:     quantile(hs.Buckets, hs.Count, 0.9),
		P99:     quantile(hs.Buckets, hs.Count, 0.99),
		ExVal:   hs.ExVal,
		ExTrace: hs.ExTrace,
	}
	if hs.Count != 0 {
		v.Mean = float64(hs.Sum) / float64(hs.Count)
	}
	// Buckets end at the top non-empty one.
	if top := len(hs.Buckets) - 1; top > 0 {
		_, hi := BucketBounds(top)
		v.MaxEst = float64(hi)
	}
	return v
}

// registryView is the WriteJSON/WriteText shape of a whole registry.
type registryView struct {
	Counters   map[string]int64    `json:"counters"`
	Gauges     map[string]float64  `json:"gauges"`
	Histograms map[string]histView `json:"histograms"`
}

func (r *Registry) view() registryView {
	s := r.Snapshot()
	v := registryView{Counters: s.Counters, Gauges: s.Gauges, Histograms: make(map[string]histView, len(s.Histograms))}
	for k, hs := range s.Histograms {
		v.Histograms[k] = hs.view()
	}
	return v
}

// ---------------------------------------------------------------------------
// Full-fidelity snapshot + merge (the telemetry-plane transfer format)

// HistogramSnapshot is the lossless serialisable form of a Histogram: raw
// bucket counts (trailing zero buckets trimmed) rather than derived
// quantiles, so snapshots from many ranks merge without losing resolution.
type HistogramSnapshot struct {
	Count   int64   `json:"count"`
	Sum     int64   `json:"sum"`
	Buckets []int64 `json:"buckets,omitempty"`
	ExVal   int64   `json:"exemplar_value,omitempty"`
	ExTrace uint64  `json:"exemplar_trace,omitempty"`
}

// RegistrySnapshot is the lossless serialisable form of a whole Registry —
// what a rank packs into a KindTelemetry push and what the rank-0 collector
// merges into the cluster-wide view.
type RegistrySnapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot captures the registry's current state with full bucket
// resolution. Safe to call while observation continues; racing updates may
// or may not be included.
func (r *Registry) Snapshot() RegistrySnapshot {
	s := RegistrySnapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	r.mu.Unlock()
	for k, v := range counters {
		s.Counters[k] = v.Load()
	}
	for k, v := range gauges {
		s.Gauges[k] = v.Load()
	}
	for k, h := range hists {
		hs := HistogramSnapshot{Count: h.Count(), Sum: h.Sum()}
		top := -1
		for i := 0; i < histBuckets; i++ {
			if h.bucketCount(i) != 0 {
				top = i
			}
		}
		if top >= 0 {
			hs.Buckets = make([]int64, top+1)
			for i := 0; i <= top; i++ {
				hs.Buckets[i] = h.bucketCount(i)
			}
		}
		hs.ExVal, hs.ExTrace = h.Exemplar()
		s.Histograms[k] = hs
	}
	return s
}

// MergeSnapshot folds a snapshot into the registry: counters and histogram
// buckets add, gauges overwrite (last write wins — cluster views namespace
// gauges per rank before merging), exemplars keep the larger value. Metrics
// absent on either side — disjoint counter sets from ranks running
// different roles — simply pass through.
func (r *Registry) MergeSnapshot(s RegistrySnapshot) {
	if r == nil {
		return
	}
	for k, v := range s.Counters {
		r.Counter(k).Add(v)
	}
	for k, v := range s.Gauges {
		r.Gauge(k).Set(v)
	}
	for k, hs := range s.Histograms {
		h := r.Histogram(k)
		h.count.Add(hs.Count)
		h.sum.Add(hs.Sum)
		for i, n := range hs.Buckets {
			if i < histBuckets && n != 0 {
				h.buckets[i].Add(n)
			}
		}
		if hs.ExTrace != 0 {
			h.ObserveExemplarOnly(hs.ExVal, hs.ExTrace)
		}
	}
}

// ObserveExemplarOnly updates the exemplar without recording an
// observation — used when merging snapshots whose counts were already
// added.
func (h *Histogram) ObserveExemplarOnly(v int64, traceID uint64) {
	if h == nil || traceID == 0 {
		return
	}
	next := &exemplar{val: v, trace: traceID}
	for {
		cur := h.ex.Load()
		if cur != nil && cur.val >= v {
			return
		}
		if h.ex.CompareAndSwap(cur, next) {
			return
		}
	}
}

// WriteJSON writes the registry as one JSON object (the /metrics?format=json
// and expvar payload).
func (r *Registry) WriteJSON(w io.Writer) error {
	return json.NewEncoder(w).Encode(r.view())
}

// WriteText writes the registry in a sorted, line-oriented text form — the
// default /metrics payload, greppable and diffable.
func (r *Registry) WriteText(w io.Writer) error {
	s := r.view()
	names := make([]string, 0, len(s.Counters))
	for k := range s.Counters {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		if _, err := fmt.Fprintf(w, "counter %-44s %d\n", k, s.Counters[k]); err != nil {
			return err
		}
	}
	names = names[:0]
	for k := range s.Gauges {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		if _, err := fmt.Fprintf(w, "gauge   %-44s %g\n", k, s.Gauges[k]); err != nil {
			return err
		}
	}
	names = names[:0]
	for k := range s.Histograms {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		h := s.Histograms[k]
		ex := ""
		if h.ExTrace != 0 {
			ex = fmt.Sprintf(" ex=%d@%#x", h.ExVal, h.ExTrace)
		}
		if _, err := fmt.Fprintf(w, "hist    %-44s count=%d mean=%.0f p50=%.0f p90=%.0f p99=%.0f max~%.0f%s\n",
			k, h.Count, h.Mean, h.P50, h.P90, h.P99, h.MaxEst, ex); err != nil {
			return err
		}
	}
	return nil
}
