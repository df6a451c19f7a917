package telemetry

import (
	"fmt"
	"net/http"
	"sort"
	"sync"

	"repro/internal/metrics"
	"repro/internal/rpc"
	"repro/internal/trace"
)

// spanKey dedupes spans across snapshot deltas and flight dumps: a span
// racing a ring snapshot can appear in two consecutive pushes, and a
// flight dump's tail overlaps the last epoch push. Spans minted by
// Tracer.Begin carry a cluster-unique ID; hand-Recorded spans (ID 0) fall
// back to their identity fields.
type spanKey struct {
	id    uint64
	rank  int32
	name  string
	start int64
	dur   int64
}

func keyOf(s trace.Span) spanKey {
	if s.ID != 0 {
		return spanKey{id: s.ID}
	}
	return spanKey{rank: s.Rank, name: s.Name, start: s.Start, dur: s.Dur}
}

// Collector is rank 0's accumulation point: per-rank clock offsets, the
// deduped union of every rank's pushed spans, the latest metrics snapshot
// per rank, and any flight dumps received after a failure. All methods are
// mutex-guarded — the epoch goroutine pushes while HTTP handlers read.
type Collector struct {
	mu          sync.Mutex
	k           int
	tracer      *trace.Tracer     // rank 0's live ring
	reg         *metrics.Registry // rank 0's live registry
	offsets     map[int32]int64   // peer tracer time + offset = rank-0 time
	rtts        map[int32]int64   // best handshake RTT per peer (diagnostics)
	spans       map[spanKey]trace.Span
	peerMetrics map[int32]metrics.RegistrySnapshot
	peerDropped map[int32]uint64
	flights     map[int32]FlightDump
}

func newCollector(k int, t *trace.Tracer, reg *metrics.Registry) *Collector {
	return &Collector{
		k:           k,
		tracer:      t,
		reg:         reg,
		offsets:     map[int32]int64{},
		rtts:        map[int32]int64{},
		spans:       map[spanKey]trace.Span{},
		peerMetrics: map[int32]metrics.RegistrySnapshot{},
		peerDropped: map[int32]uint64{},
		flights:     map[int32]FlightDump{},
	}
}

func (c *Collector) setOffset(rank int32, offset, rtt int64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.offsets[rank] = offset
	c.rtts[rank] = rtt
}

// Offset returns the clock-offset estimate for a rank (0 for rank 0 and
// for ranks never handshaken).
func (c *Collector) Offset(rank int32) int64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.offsets[rank]
}

// Offsets returns a copy of the per-rank clock-offset table.
func (c *Collector) Offsets() map[int32]int64 {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[int32]int64, len(c.offsets))
	for r, o := range c.offsets {
		out[r] = o
	}
	return out
}

// RankMismatchError is a peer's snapshot push or flight dump whose payload
// names another rank than the frame's sender: ingesting it would file the
// sender's spans and metrics under the wrong rank, or overwrite that rank's.
type RankMismatchError struct {
	Op   int32 // opSnapshot or opFlight
	From int32 // the frame's sender
	Rank int32 // the rank the payload claims
}

func (e *RankMismatchError) Error() string {
	return fmt.Sprintf("telemetry: op %d frame from rank %d claims rank %d", e.Op, e.From, e.Rank)
}

// receive decodes a peer's frame of the expected op — a snapshot push or a
// flight dump — checks the rank it names against the frame's sender, and
// folds it into the cluster view. A frame it rejects changes nothing.
func (c *Collector) receive(m *rpc.Message, op int32) error {
	if m.Dim != op {
		return fmt.Errorf("telemetry: op %d frame where op %d was expected", m.Dim, op)
	}
	if op == opFlight {
		var d FlightDump
		if err := unpackJSON(m, &d); err != nil {
			return err
		}
		if d.Rank != m.From {
			return &RankMismatchError{Op: op, From: m.From, Rank: d.Rank}
		}
		c.AddFlight(d)
		return nil
	}
	var s wireSnapshot
	if err := unpackJSON(m, &s); err != nil {
		return err
	}
	if s.Rank != m.From {
		return &RankMismatchError{Op: op, From: m.From, Rank: s.Rank}
	}
	c.addSnapshot(s)
	return nil
}

// addSnapshot ingests one rank's epoch push.
func (c *Collector) addSnapshot(s wireSnapshot) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ingest(s.Rank, s.Spans, s.Metrics, s.Dropped)
}

// AddFlight folds a survivor's flight dump into the cluster view like an
// epoch push, and keeps the dump. Used both by the live drain after a
// failure and by cmd/flexgraph-trace for post-hoc files.
func (c *Collector) AddFlight(d FlightDump) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ingest(d.Rank, d.Spans, d.Metrics, d.Dropped)
	c.flights[d.Rank] = d
}

// ingest folds what one rank reported into the cluster view: its spans are
// skew-corrected onto rank 0's timeline and deduped, a non-empty metrics
// snapshot replaces the rank's previous one (snapshots are cumulative, so
// latest wins), and so does its dropped-span count. c.mu must be held.
func (c *Collector) ingest(rank int32, spans []trace.Span, m metrics.RegistrySnapshot, dropped uint64) {
	off := c.offsets[rank]
	for _, sp := range spans {
		sp.Start += off
		c.spans[keyOf(sp)] = sp
	}
	if m.Counters != nil || m.Gauges != nil || m.Histograms != nil {
		c.peerMetrics[rank] = m
	}
	c.peerDropped[rank] = dropped
}

// Flights returns the flight dumps received so far, in rank order.
func (c *Collector) Flights() []FlightDump {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]FlightDump, 0, len(c.flights))
	for _, d := range c.flights {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Rank < out[j].Rank })
	return out
}

// MergedSpans returns the cluster-wide span set on rank 0's timeline:
// rank 0's live ring plus every pushed/flight span, deduped and sorted.
func (c *Collector) MergedSpans() []trace.Span {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	merged := make(map[spanKey]trace.Span, len(c.spans)+c.tracer.Len())
	// Rank 0's own spans need no correction. In a shared-ring in-process
	// cluster this is already every rank's span set; dedup absorbs the
	// overlap with whatever the peers pushed.
	for _, sp := range c.tracer.Spans() {
		merged[keyOf(sp)] = sp
	}
	for k, sp := range c.spans {
		merged[k] = sp
	}
	out := make([]trace.Span, 0, len(merged))
	for _, sp := range merged {
		out = append(out, sp)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].Rank < out[j].Rank
	})
	return out
}

// MergedRegistry builds the cluster-wide metrics view: a fresh registry
// holding rank 0's live state merged with every rank's latest snapshot
// (counters and histogram buckets add; per-rank-named series pass through
// disjointly). Dropped-span counts surface as per-rank gauges.
func (c *Collector) MergedRegistry() *metrics.Registry {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	peers := make(map[int32]metrics.RegistrySnapshot, len(c.peerMetrics))
	for r, s := range c.peerMetrics {
		peers[r] = s
	}
	dropped := make(map[int32]uint64, len(c.peerDropped))
	for r, d := range c.peerDropped {
		dropped[r] = d
	}
	c.mu.Unlock()

	out := metrics.NewRegistry()
	out.MergeSnapshot(c.reg.Snapshot())
	ranks := make([]int, 0, len(peers))
	for r := range peers {
		ranks = append(ranks, int(r))
	}
	sort.Ints(ranks)
	for _, r := range ranks {
		out.MergeSnapshot(peers[int32(r)])
	}
	out.Gauge("trace.spans_dropped.rank0").Set(float64(c.tracer.Dropped()))
	for r, d := range dropped {
		out.Gauge(fmt.Sprintf("trace.spans_dropped.rank%d", r)).Set(float64(d))
	}
	return out
}

// WriteMergedTrace writes the skew-corrected cluster timeline as Chrome
// trace-event JSON.
func (c *Collector) WriteMergedTrace(path string) error {
	f, err := createFile(path)
	if err != nil {
		return err
	}
	if err := trace.WriteChromeTrace(f, c.MergedSpans()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// MetricsHandler serves the cluster-wide registry (text, or JSON with
// ?format=json) — mounted at /metrics/cluster on rank 0's debug mux.
func (c *Collector) MetricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		reg := c.MergedRegistry()
		if r.URL.Query().Get("format") == "json" {
			w.Header().Set("Content-Type", "application/json")
			_ = reg.WriteJSON(w)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_ = reg.WriteText(w)
	})
}

// TraceHandler streams the merged cluster timeline as Chrome trace-event
// JSON — mounted at /trace/cluster on rank 0's debug mux.
func (c *Collector) TraceHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = trace.WriteChromeTrace(w, c.MergedSpans())
	})
}
