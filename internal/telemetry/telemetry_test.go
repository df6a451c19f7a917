package telemetry

import (
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/collective"
	"repro/internal/metrics"
	"repro/internal/rpc"
	"repro/internal/trace"
)

func TestPackUnpackRoundTrip(t *testing.T) {
	in := wireSnapshot{
		Rank:    2,
		Now:     12345,
		Dropped: 7,
		Spans: []trace.Span{
			{Name: "epoch", Cat: trace.CatEpoch, Rank: 2, Start: 10, Dur: 100, ID: 0x300000001},
		},
	}
	in.Metrics = metrics.RegistrySnapshot{Counters: map[string]int64{"x": 3}}
	m, err := packJSON(opSnapshot, in)
	if err != nil {
		t.Fatal(err)
	}
	if m.Kind != rpc.KindTelemetry || m.Dim != opSnapshot {
		t.Fatalf("frame kind/op = %v/%d", m.Kind, m.Dim)
	}
	// Through the real codec, like it travels on the wire.
	decoded, err := rpc.Decode(m.Encode())
	if err != nil {
		t.Fatal(err)
	}
	var out wireSnapshot
	if err := unpackJSON(decoded, &out); err != nil {
		t.Fatal(err)
	}
	if out.Rank != 2 || out.Dropped != 7 || len(out.Spans) != 1 || out.Spans[0].ID != 0x300000001 {
		t.Fatalf("round trip: %+v", out)
	}
	if out.Metrics.Counters["x"] != 3 {
		t.Fatalf("metrics lost: %+v", out.Metrics)
	}

	if err := unpackJSON(&rpc.Message{Kind: rpc.KindTelemetry}, &out); err == nil {
		t.Fatal("frame without a length word must error")
	}
	if err := unpackJSON(&rpc.Message{Kind: rpc.KindTelemetry, Counts: []int32{99}, IDs: []int32{1}}, &out); err == nil {
		t.Fatal("declared length beyond payload must error")
	}
}

// TestUnpackJSONNamesTheLengths: a frame whose declared payload length does
// not fit its IDs section — longer than the section, or negative — fails
// with an error naming the declared length and the frame's byte capacity.
func TestUnpackJSONNamesTheLengths(t *testing.T) {
	for _, c := range []struct {
		declared int32
		words    []int32
	}{
		{99, []int32{1}},
		{5, []int32{1}},
		{1, nil},
		{-1, []int32{1, 2}},
		{math.MinInt32, nil},
	} {
		var out wirePing
		err := unpackJSON(&rpc.Message{Kind: rpc.KindTelemetry, Counts: []int32{c.declared}, IDs: c.words}, &out)
		want := fmt.Sprintf("telemetry: declared payload length %d does not fit the frame's %d bytes", c.declared, 4*len(c.words))
		if err == nil || err.Error() != want {
			t.Errorf("declared %d over %d words: err %v, want %q", c.declared, len(c.words), err, want)
		}
	}
}

func TestCollectorSkewCorrectionAndDedup(t *testing.T) {
	tr := trace.New(64)
	reg := metrics.NewRegistry()
	c := newCollector(3, tr, reg)
	c.setOffset(1, 1_000_000, 50)

	sp := trace.Span{Name: "epoch", Cat: trace.CatEpoch, Rank: 1, Start: 500, Dur: 10, ID: 0x200000042}
	c.addSnapshot(wireSnapshot{Rank: 1, Spans: []trace.Span{sp}})
	// The same span arriving again (next delta overlapped, or a flight
	// dump's tail) must not double up.
	c.addSnapshot(wireSnapshot{Rank: 1, Spans: []trace.Span{sp}})

	merged := c.MergedSpans()
	var got []trace.Span
	for _, s := range merged {
		if s.ID == sp.ID {
			got = append(got, s)
		}
	}
	if len(got) != 1 {
		t.Fatalf("span deduplication failed: %d copies", len(got))
	}
	if got[0].Start != 500+1_000_000 {
		t.Fatalf("skew correction: Start = %d, want %d", got[0].Start, 500+1_000_000)
	}
	if c.Offset(1) != 1_000_000 || c.Offset(0) != 0 {
		t.Fatalf("offsets: %v", c.Offsets())
	}
}

func TestMergedRegistryAcrossRanks(t *testing.T) {
	tr := trace.New(64)
	reg := metrics.NewRegistry()
	reg.Counter("collective.ops.rank0").Add(2)
	c := newCollector(2, tr, reg)

	peer := metrics.NewRegistry()
	peer.Counter("collective.ops.rank1").Add(5)
	c.addSnapshot(wireSnapshot{Rank: 1, Dropped: 9, Metrics: peer.Snapshot()})

	out := c.MergedRegistry()
	if got := out.Counter("collective.ops.rank0").Load(); got != 2 {
		t.Fatalf("rank0 ops = %d", got)
	}
	if got := out.Counter("collective.ops.rank1").Load(); got != 5 {
		t.Fatalf("rank1 ops = %d", got)
	}
	if got := out.Gauge("trace.spans_dropped.rank1").Load(); got != 9 {
		t.Fatalf("rank1 dropped gauge = %v", got)
	}
}

func TestFlightFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	d := FlightDump{
		Rank:       1,
		Wall:       time.Now().UTC().Format(time.RFC3339Nano),
		TracerNow:  42,
		Cause:      "rpc: transport crashed",
		Dropped:    3,
		Spans:      []trace.Span{{Name: "fence", Cat: trace.CatFence, Rank: 1, Start: 7, Dur: 2, ID: 0x200000007}},
		Goroutines: "goroutine 1 [running]:\nmain.main()",
		Offsets:    map[int32]int64{1: 123, 2: -456},
	}
	if err := WriteFlightFile(dir, d); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFlightFile(filepath.Join(dir, "flight-1.json"))
	if err != nil {
		t.Fatal(err)
	}
	if got.Rank != 1 || got.Cause != d.Cause || len(got.Spans) != 1 || got.Spans[0].ID != d.Spans[0].ID {
		t.Fatalf("round trip: %+v", got)
	}
	if got.Offsets[2] != -456 {
		t.Fatalf("offsets: %v", got.Offsets)
	}
	if _, err := ReadFlightFile(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing file must error")
	}
}

func TestFlightWorthy(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{nil, false},
		{errors.New("bad config"), false},
		{fmt.Errorf("epoch 3: %w", &collective.AbortError{From: 2}), true},
		{fmt.Errorf("epoch 3: %w", &collective.TimeoutError{}), true},
		{fmt.Errorf("send: %w", rpc.ErrCrashed), true},
		// A SIGKILLed peer surfaces on its neighbours as a raw transport
		// error before any abort broadcast can arrive.
		{fmt.Errorf("all-reduce: %w", &net.OpError{Op: "read", Net: "tcp", Err: errors.New("connection reset by peer")}), true},
		{fmt.Errorf("recv: %w", io.ErrUnexpectedEOF), true},
	}
	for _, c := range cases {
		if got := FlightWorthy(c.err); got != c.want {
			t.Fatalf("FlightWorthy(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}

// planePair builds a k-rank loopback telemetry plane with per-rank tracers
// and registries (the multi-process shape).
func planePair(t *testing.T, k int, tracers []*trace.Tracer) []*Plane {
	t.Helper()
	netw := rpc.NewLoopbackNetwork(k)
	t.Cleanup(func() { netw.Close() })
	planes := make([]*Plane, k)
	for rank := 0; rank < k; rank++ {
		comm := collective.New(netw.Transport(rank), &metrics.Breakdown{}, collective.WithRecvTimeout(5*time.Second))
		planes[rank] = New(Options{
			Rank: rank, K: k, Comm: comm,
			Tracer:   tracers[rank],
			Registry: metrics.NewRegistry(),
		})
	}
	return planes
}

// TestClockSyncRecoversBaseSkew creates rank 1's tracer ~40ms after rank
// 0's, so their relative clocks genuinely disagree, and checks the RTT
// handshake estimates the gap: over loopback the error bound is the RTT,
// which is microseconds, but we only assert the coarse window.
func TestClockSyncRecoversBaseSkew(t *testing.T) {
	tr0 := trace.New(64)
	const skew = 40 * time.Millisecond
	time.Sleep(skew)
	tr1 := trace.New(64)

	planes := planePair(t, 2, []*trace.Tracer{tr0, tr1})
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for rank := range planes {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			errs[rank] = planes[rank].SyncClocks(0)
		}(rank)
	}
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d sync: %v", rank, err)
		}
	}
	off := planes[0].Collector().Offset(1)
	// tr1's clock started `skew` late, so its readings are `skew` behind
	// rank 0's and the correction must be ≈ +skew. Sleep can oversleep but
	// never undersleeps, so the lower bound is tight.
	if off < int64(skew)-int64(5*time.Millisecond) || off > int64(skew)+int64(500*time.Millisecond) {
		t.Fatalf("offset estimate %v, want ≈ %v", time.Duration(off), skew)
	}
}

// TestPushEpochCollects runs the real epoch push on a 3-rank loopback
// cluster with per-rank state: the collector must end up holding every
// rank's spans (skew-corrected) and metrics, and a second push must ship
// only the delta yet leave the merged view complete.
func TestPushEpochCollects(t *testing.T) {
	const k = 3
	tracers := make([]*trace.Tracer, k)
	for i := range tracers {
		tracers[i] = trace.New(256)
	}
	planes := planePair(t, k, tracers)

	record := func(epoch int32) {
		for rank := 0; rank < k; rank++ {
			r := tracers[rank].Begin(int32(rank), epoch, 0, trace.CatEpoch, "epoch")
			r.End()
			planes[rank].o.Registry.Counter(fmt.Sprintf("collective.ops.rank%d", rank)).Add(1)
		}
	}
	push := func(epoch int32) {
		var wg sync.WaitGroup
		errs := make([]error, k)
		for rank := 0; rank < k; rank++ {
			wg.Add(1)
			go func(rank int) {
				defer wg.Done()
				errs[rank] = planes[rank].PushEpoch(epoch)
			}(rank)
		}
		wg.Wait()
		for rank, err := range errs {
			if err != nil {
				t.Fatalf("rank %d push epoch %d: %v", rank, epoch, err)
			}
		}
	}

	record(0)
	push(0)
	record(1)
	push(1)

	col := planes[0].Collector()
	perRank := map[int32]int{}
	for _, sp := range col.MergedSpans() {
		if sp.Name == "epoch" {
			perRank[sp.Rank]++
		}
	}
	for rank := int32(0); rank < k; rank++ {
		if perRank[rank] != 2 {
			t.Fatalf("rank %d: %d epoch spans in merged view, want 2 (per-rank: %v)", rank, perRank[rank], perRank)
		}
	}
	reg := col.MergedRegistry()
	for rank := 0; rank < k; rank++ {
		if got := reg.Counter(fmt.Sprintf("collective.ops.rank%d", rank)).Load(); got != 2 {
			t.Fatalf("rank %d ops counter = %d, want 2", rank, got)
		}
	}
}

// TestNilPlaneNoOps pins the disabled path the cluster runtime wires
// unconditionally: every method on a nil plane is safe.
func TestNilPlaneNoOps(t *testing.T) {
	var p *Plane
	if p.Collector() != nil {
		t.Fatal("nil plane has a collector")
	}
	if err := p.SyncClocks(0); err != nil {
		t.Fatal(err)
	}
	if err := p.PushEpoch(0); err != nil {
		t.Fatal(err)
	}
	if err := p.Finish(); err != nil {
		t.Fatal(err)
	}
	p.OnFailure(errors.New("x"))
	var c *Collector
	c.AddFlight(FlightDump{})
	if c.MergedSpans() != nil || c.Flights() != nil || c.Offsets() != nil {
		t.Fatal("nil collector leaked state")
	}
}
