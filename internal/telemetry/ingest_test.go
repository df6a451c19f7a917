package telemetry

import (
	"bytes"
	"encoding/json"
	"errors"
	"runtime"
	"testing"

	"repro/internal/collective"
	"repro/internal/metrics"
	"repro/internal/rpc"
	"repro/internal/trace"
)

// TestSnapshotRankMustBeTheSender: rank 1 pushes a snapshot that claims to
// be rank 2's. Rank 0's gather fails with a *RankMismatchError naming both,
// and nothing the forged frame carried reaches the merged view.
func TestSnapshotRankMustBeTheSender(t *testing.T) {
	const k = 3
	tracers := []*trace.Tracer{trace.New(64), trace.New(64), trace.New(64)}
	planes := planePair(t, k, tracers)
	for _, p := range planes {
		p.synced = true // no clock handshake: rank 1 below does not answer one
	}
	forged := metrics.NewRegistry()
	forged.Counter("forged").Add(1)
	msg, err := packJSON(opSnapshot, wireSnapshot{Rank: 2, Metrics: forged.Snapshot()})
	if err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, 2)
	go func() {
		_, err := planes[1].o.Comm.Gather(collective.Fence{Phase: phaseSnapshot}, rpc.KindTelemetry, 0, msg)
		errs <- err
	}()
	go func() { errs <- planes[2].PushEpoch(0) }()
	err = planes[0].PushEpoch(0)
	var mismatch *RankMismatchError
	if !errors.As(err, &mismatch) || *mismatch != (RankMismatchError{Op: opSnapshot, From: 1, Rank: 2}) {
		t.Fatalf("rank 0 push: %v, want a *RankMismatchError from rank 1 claiming rank 2", err)
	}
	for range 2 {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if got := planes[0].Collector().MergedRegistry().Counter("forged").Load(); got != 0 {
		t.Fatalf("the forged snapshot was ingested (counter %d)", got)
	}
}

// TestFlightDumpRankMustBeTheSender: of two dumps rank 1 sends after a
// failure, the one claiming rank 3 is dropped and its own is kept.
func TestFlightDumpRankMustBeTheSender(t *testing.T) {
	planes := planePair(t, 2, []*trace.Tracer{trace.New(64), trace.New(64)})
	f := collective.Fence{Epoch: flightEpoch, Phase: phaseFlight}
	for _, rank := range []int32{3, 1} {
		msg, err := packJSON(opFlight, FlightDump{Rank: rank, Cause: "test"})
		if err != nil {
			t.Fatal(err)
		}
		if err := planes[1].o.Comm.SendTo(0, f, msg); err != nil {
			t.Fatal(err)
		}
	}
	planes[0].OnFailure(&collective.AbortError{From: 1})
	var ranks []int32
	for _, d := range planes[0].Collector().Flights() {
		ranks = append(ranks, d.Rank)
	}
	if len(ranks) != 2 || ranks[0] != 0 || ranks[1] != 1 {
		t.Fatalf("flight dumps from ranks %v, want [0 1]", ranks)
	}
}

// ingestFrame builds the frame FuzzTelemetryIngest feeds the collector from
// its input: byte 0 picks the frame's op (snapshot, flight, ping: data[0]%3)
// and the op the collector expects (snapshot or flight: data[0]/3%2), byte 1
// the sender (mod 4), byte 2 how far the declared payload length is off
// (signed), and the rest is the JSON payload.
func ingestFrame(data []byte) (m *rpc.Message, expect int32) {
	op := []int32{opSnapshot, opFlight, opPing}[data[0]%3]
	expect = []int32{opSnapshot, opFlight}[data[0]/3%2]
	payload := data[3:]
	return &rpc.Message{
		Kind:   rpc.KindTelemetry,
		From:   int32(data[1] % 4),
		Dim:    op,
		IDs:    rpc.PackBytes(payload),
		Counts: []int32{int32(len(payload)) + int32(int8(data[2]))},
	}, expect
}

// ingestSeeds is the seed corpus: honest and misattributed frames of both
// ops, an op the collector did not expect, and damaged payloads.
// testdata/fuzz/FuzzTelemetryIngest holds the same inputs as committed
// files, which plain `go test` replays.
func ingestSeeds() map[string][]byte {
	reg := metrics.NewRegistry()
	reg.Counter("collective.ops.rank1").Add(3)
	reg.Gauge("g").Set(0.25)
	reg.Histogram("h").Observe(40)
	span := trace.Span{Name: "epoch", Cat: trace.CatEpoch, Rank: 1, Start: 5, Dur: 9, ID: 0x100000001, Links: []uint64{7}}
	snap, _ := json.Marshal(wireSnapshot{Rank: 1, Now: 99, Dropped: 2, Spans: []trace.Span{span}, Metrics: reg.Snapshot()})
	dump, _ := json.Marshal(FlightDump{Rank: 2, Cause: "abort", Spans: []trace.Span{span}, Metrics: reg.Snapshot(),
		Goroutines: "goroutine 1", Offsets: map[int32]int64{1: -4}})
	frame := func(sel, from byte, off int8, payload []byte) []byte {
		return append([]byte{sel, from, byte(off)}, payload...)
	}
	return map[string][]byte{
		"snapshot":          frame(0, 1, 0, snap),
		"snapshot-mismatch": frame(0, 2, 0, snap),
		"flight":            frame(4, 2, 0, dump),
		"flight-mismatch":   frame(4, 0, 0, dump),
		"unexpected-op":     frame(3, 1, 0, snap),
		"ping":              frame(2, 1, 0, []byte(`{"t0":1}`)),
		"truncated":         frame(0, 1, 0, snap[:len(snap)/2]),
		"length-past-end":   frame(4, 2, 5, dump),
		"length-negative":   frame(0, 1, -128, snap[:40]),
		"empty":             frame(0, 0, 0, nil),
		"huge-array":        frame(0, 0, 0, []byte(`{"rank":0,"spans":[{},{},{},{},{},{},{},{}]}`)),
	}
}

// FuzzTelemetryIngest holds the collector's ingest to the decoder contract
// on arbitrary frames: never a panic; allocation bounded by the input; and
// either an error that leaves the collector untouched or a payload that was
// filed under its sender and whose re-encoding is a fixpoint.
func FuzzTelemetryIngest(f *testing.F) {
	for _, data := range ingestSeeds() {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		m, expect := ingestFrame(data)
		c := newCollector(4, trace.New(8), metrics.NewRegistry())
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := c.receive(m, expect)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20+256*uint64(len(data)) {
			t.Fatalf("a %d-byte frame made the collector allocate %d bytes", len(data), grew)
		}
		if err != nil {
			if len(c.spans) != 0 || len(c.peerMetrics) != 0 || len(c.peerDropped) != 0 || len(c.flights) != 0 {
				t.Fatalf("a rejected frame (%v) changed the collector", err)
			}
			return
		}
		decode := func(b []byte) (any, error) {
			var v any = &wireSnapshot{}
			if expect == opFlight {
				v = &FlightDump{}
			}
			return v, json.Unmarshal(b, v)
		}
		if expect == opFlight {
			if _, ok := c.flights[m.From]; !ok {
				t.Fatal("an accepted flight dump is not filed under its sender")
			}
		} else if _, ok := c.peerDropped[m.From]; !ok {
			t.Fatal("an accepted snapshot is not filed under its sender")
		}
		v, err := decode(rpc.UnpackBytes(m.IDs, int(m.Counts[0])))
		if err != nil {
			t.Fatal(err)
		}
		once, err := json.Marshal(v)
		if err != nil {
			t.Fatalf("an accepted payload does not re-encode: %v", err)
		}
		again := once
		if v, err = decode(once); err == nil {
			again, err = json.Marshal(v)
		}
		if err != nil || !bytes.Equal(once, again) {
			t.Fatalf("re-encoding is not a fixpoint (%v):\n%s\n%s", err, once, again)
		}
	})
}
