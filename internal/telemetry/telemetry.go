// Package telemetry is FlexGraph-Go's cluster-wide observability plane. It
// turns the per-rank span rings and metrics registries of the trace/metrics
// layers into one cluster-level view on rank 0:
//
//   - every rank pushes epoch-fenced snapshots of its span-ring delta and
//     its metrics registry to a rank-0 collector over rpc.KindTelemetry
//     messages (riding the same fenced mailbox as the training
//     collectives, so snapshots never reorder against the collectives
//     they describe);
//   - a two-way RTT handshake estimates each rank's clock offset relative
//     to rank 0 (NTP-style: offset = (t0+t1)/2 − remote-now at the
//     minimum-RTT round), so the collector can emit a single
//     skew-corrected Perfetto timeline with one process lane per rank;
//   - a flight recorder dumps each survivor's last spans, metrics
//     snapshot and goroutine stacks to flight-<rank>.json when the
//     cluster dies of an *AbortError / *TimeoutError / ErrCrashed, and
//     rank 0 folds dumps it manages to receive into the merged timeline.
//
// A nil *Plane is a valid, disabled plane — every method no-ops — so the
// cluster runtime wires it unconditionally.
package telemetry

import (
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/collective"
	"repro/internal/metrics"
	"repro/internal/rpc"
	"repro/internal/trace"
)

// Telemetry opcodes carried in the rpc message's Dim field.
const (
	opPing     int32 = 1
	opPong     int32 = 2
	opSnapshot int32 = 3
	opFlight   int32 = 4
)

// Fence phases for telemetry traffic. KindTelemetry is exclusive to this
// package, so the phase space is private: clock-sync rounds use the low
// phases (two per peer×round), snapshot pushes and flight dumps sit far
// above anything the sync can reach.
const (
	phaseSnapshot int32 = 1 << 20
	phaseFlight   int32 = 1<<20 + 1
	// flightEpoch is deliberately huge: a flight dump racing into a rank
	// still blocked in a live collective must be buffered as a
	// future-epoch message, never rejected as stale (which would surface
	// as a spurious *FenceError on the collector).
	flightEpoch int32 = 1 << 30
)

func clockPhase(peer, round int) int32 { return int32(2 * (peer*clockRounds + round)) }

const (
	// clockRounds is the number of RTT rounds per peer in the clock
	// handshake; the minimum-RTT round's offset estimate wins.
	clockRounds = 4
	// flightSpans bounds the span tail included in a flight dump.
	flightSpans = 256
	// drainWait bounds how long rank 0 waits for survivors' flight dumps
	// after a failure.
	drainWait = 250 * time.Millisecond
)

// Options configures one rank's telemetry plane.
type Options struct {
	Rank int
	K    int
	// Comm carries the plane's control traffic. It is the worker's own
	// communicator: telemetry collectives interleave with training
	// collectives at well-known fences, like MPI's rule of one
	// communicator-wide operation order.
	Comm *collective.Comm
	// Tracer and Registry are this rank's local observability state.
	Tracer   *trace.Tracer
	Registry *metrics.Registry
	// Shared marks an in-process cluster where every worker records into
	// ONE tracer and ONE registry. Snapshot pushes then carry no payload
	// (the collector already sees everything locally) and clock sync is
	// skipped (there is only one clock).
	Shared bool
	// FlightDir receives flight-<rank>.json on failure ("" disables the
	// flight recorder).
	FlightDir string
	// MergedTrace, on rank 0, is the path the merged cluster timeline is
	// written to when the run finishes or fails ("" disables).
	MergedTrace string
}

// Plane is one rank's half of the telemetry protocol. Methods are called
// from the worker's epoch goroutine only (same confinement as the Comm).
type Plane struct {
	o         Options
	col       *Collector // non-nil on rank 0
	cursor    uint64     // span-ring position already pushed
	synced    bool
	finalized bool
}

// New builds the plane for one rank; rank 0 also hosts the collector.
func New(o Options) *Plane {
	p := &Plane{o: o}
	if o.Rank == 0 {
		p.col = newCollector(o.K, o.Tracer, o.Registry)
	}
	return p
}

// Collector returns rank 0's collector (nil elsewhere, and on a nil plane).
func (p *Plane) Collector() *Collector {
	if p == nil {
		return nil
	}
	return p.col
}

// Wire payloads (JSON, packed into the IDs section via rpc.PackBytes).
type wirePing struct {
	T0 int64 `json:"t0"` // rank 0's tracer-relative send time
}

type wirePong struct {
	T0   int64 `json:"t0"`
	RNow int64 `json:"rnow"` // responder's tracer-relative time at reply
}

// wireSnapshot is one rank's epoch-fenced telemetry push.
type wireSnapshot struct {
	Rank    int32                    `json:"rank"`
	Now     int64                    `json:"now"`
	Dropped uint64                   `json:"dropped"`
	Spans   []trace.Span             `json:"spans,omitempty"`
	Metrics metrics.RegistrySnapshot `json:"metrics"`
}

// packJSON wraps a payload into a KindTelemetry message: JSON bytes packed
// into IDs, byte length in Counts[0], opcode in Dim.
func packJSON(op int32, v any) (*rpc.Message, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("telemetry: marshal op %d: %w", op, err)
	}
	return &rpc.Message{
		Kind:   rpc.KindTelemetry,
		IDs:    rpc.PackBytes(b),
		Counts: []int32{int32(len(b))},
		Dim:    op,
	}, nil
}

// unpackJSON reverses packJSON.
func unpackJSON(m *rpc.Message, v any) error {
	if m == nil || len(m.Counts) != 1 {
		return fmt.Errorf("telemetry: malformed frame (no length)")
	}
	n := m.Counts[0]
	b := rpc.UnpackBytes(m.IDs, int(n))
	if b == nil {
		return fmt.Errorf("telemetry: declared payload length %d does not fit the frame's %d bytes", n, 4*len(m.IDs))
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("telemetry: decode op %d: %w", m.Dim, err)
	}
	return nil
}

// SyncClocks runs the RTT handshake at an epoch fence. Every rank must
// call it at the same point in the epoch protocol (rank 0 drives, each
// peer answers its own phases; ranks are handled sequentially so the
// estimates don't contend for bandwidth). The minimum-RTT round per peer
// yields offset = (t0+t1)/2 − remote-now, which lands the peer's
// tracer-relative clock on rank 0's timeline — it corrects both differing
// tracer base times and genuine clock skew.
func (p *Plane) SyncClocks(epoch int32) error {
	if p == nil || p.o.K <= 1 || p.o.Shared || !p.o.Tracer.Enabled() {
		return nil
	}
	if p.o.Rank != 0 {
		q := p.o.Rank
		for r := 0; r < clockRounds; r++ {
			f := collective.Fence{Epoch: epoch, Phase: clockPhase(q, r)}
			m, err := p.o.Comm.RecvFrom(0, f, rpc.KindTelemetry)
			if err != nil {
				return fmt.Errorf("telemetry: clock sync recv (rank %d round %d): %w", q, r, err)
			}
			var ping wirePing
			if err := unpackJSON(m, &ping); err != nil {
				return err
			}
			pong, err := packJSON(opPong, wirePong{T0: ping.T0, RNow: p.o.Tracer.Now()})
			if err != nil {
				return err
			}
			pf := collective.Fence{Epoch: epoch, Phase: clockPhase(q, r) + 1}
			if err := p.o.Comm.SendTo(0, pf, pong); err != nil {
				return fmt.Errorf("telemetry: clock sync reply (rank %d round %d): %w", q, r, err)
			}
		}
		return nil
	}
	for q := 1; q < p.o.K; q++ {
		bestRTT := int64(1<<63 - 1)
		var bestOffset int64
		for r := 0; r < clockRounds; r++ {
			t0 := p.o.Tracer.Now()
			ping, err := packJSON(opPing, wirePing{T0: t0})
			if err != nil {
				return err
			}
			f := collective.Fence{Epoch: epoch, Phase: clockPhase(q, r)}
			if err := p.o.Comm.SendTo(q, f, ping); err != nil {
				return fmt.Errorf("telemetry: clock sync ping to rank %d: %w", q, err)
			}
			pf := collective.Fence{Epoch: epoch, Phase: clockPhase(q, r) + 1}
			m, err := p.o.Comm.RecvFrom(q, pf, rpc.KindTelemetry)
			if err != nil {
				return fmt.Errorf("telemetry: clock sync pong from rank %d: %w", q, err)
			}
			t1 := p.o.Tracer.Now()
			var pong wirePong
			if err := unpackJSON(m, &pong); err != nil {
				return err
			}
			if rtt := t1 - t0; rtt < bestRTT {
				bestRTT = rtt
				bestOffset = (t0+t1)/2 - pong.RNow
			}
		}
		p.col.setOffset(int32(q), bestOffset, bestRTT)
	}
	return nil
}

// PushEpoch ships this rank's span-ring delta and metrics snapshot to the
// collector at an epoch fence (a Gather rooted at rank 0 — every rank must
// call it at the same point). The first call also runs the clock
// handshake. Shared-state clusters skip the payload: the collector reads
// the one tracer/registry directly.
func (p *Plane) PushEpoch(epoch int32) error {
	if p == nil || p.o.K <= 1 {
		return nil
	}
	if !p.synced {
		if err := p.SyncClocks(epoch); err != nil {
			return err
		}
		p.synced = true
	}
	snap := wireSnapshot{Rank: int32(p.o.Rank), Now: p.o.Tracer.Now()}
	if !p.o.Shared {
		snap.Dropped = p.o.Tracer.Dropped()
		snap.Spans, p.cursor = p.ownSpansSince(p.cursor)
		snap.Metrics = p.o.Registry.Snapshot()
	}
	msg, err := packJSON(opSnapshot, snap)
	if err != nil {
		return err
	}
	f := collective.Fence{Epoch: epoch, Phase: phaseSnapshot}
	msgs, err := p.o.Comm.Gather(f, rpc.KindTelemetry, 0, msg)
	if err != nil {
		return fmt.Errorf("telemetry: snapshot push at epoch %d: %w", epoch, err)
	}
	if p.o.Rank != 0 {
		return nil
	}
	for _, m := range msgs {
		if err := p.col.receive(m, opSnapshot); err != nil {
			return err
		}
	}
	return nil
}

// ownSpansSince returns this rank's completed spans recorded after the
// cursor. The rank filter matters for in-process clusters sharing one
// ring; for per-process tracers it is a no-op.
func (p *Plane) ownSpansSince(cursor uint64) ([]trace.Span, uint64) {
	spans, next := p.o.Tracer.SpansSince(cursor)
	own := spans[:0]
	for _, s := range spans {
		if int(s.Rank) == p.o.Rank {
			own = append(own, s)
		}
	}
	return own, next
}

// Finish writes the merged cluster timeline on rank 0 (success path). Safe
// to call multiple times; later calls rewrite the file with newer state.
func (p *Plane) Finish() error {
	if p == nil || p.col == nil || p.o.MergedTrace == "" {
		return nil
	}
	p.finalized = true
	return p.col.WriteMergedTrace(p.o.MergedTrace)
}
