package telemetry

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/collective"
	"repro/internal/metrics"
	"repro/internal/rpc"
	"repro/internal/trace"
)

// FlightDump is one rank's record of "what I saw when the cluster died":
// the tail of its span ring, a full-fidelity metrics snapshot, and every
// goroutine's stack at dump time. It is both the flight-<rank>.json file
// format and the opFlight wire payload, so cmd/flexgraph-trace merges
// on-disk dumps exactly the way the live collector merges received ones.
type FlightDump struct {
	Rank       int32                    `json:"rank"`
	Wall       string                   `json:"wall"` // RFC3339Nano wall-clock time of the dump
	TracerNow  int64                    `json:"tracer_now"`
	Cause      string                   `json:"cause"`
	Dropped    uint64                   `json:"dropped"`
	Spans      []trace.Span             `json:"spans"`
	Metrics    metrics.RegistrySnapshot `json:"metrics"`
	Goroutines string                   `json:"goroutines"`
	// Offsets is rank 0's clock-offset table (peer tracer time + offset =
	// rank-0 time), included so an offline merge of per-rank dumps can
	// reuse the live handshake's estimates.
	Offsets map[int32]int64 `json:"offsets,omitempty"`
}

// FlightWorthy reports whether an error is a cluster-death signal the
// flight recorder should fire on: a peer's abort broadcast, a collective
// receive timeout, a transport-level network failure (a SIGKILLed peer
// surfaces on its neighbours as a raw connection reset before any abort
// broadcast can arrive), or this rank's own injected/real crash. Ordinary
// errors (bad config, local I/O) don't trigger dumps.
func FlightWorthy(err error) bool {
	var abort *collective.AbortError
	var timeout *collective.TimeoutError
	var neterr net.Error
	return errors.As(err, &abort) || errors.As(err, &timeout) ||
		errors.As(err, &neterr) || errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, rpc.ErrCrashed)
}

// buildDump assembles this rank's flight dump.
func (p *Plane) buildDump(cause error) FlightDump {
	d := FlightDump{
		Rank:      int32(p.o.Rank),
		Wall:      time.Now().UTC().Format(time.RFC3339Nano),
		TracerNow: p.o.Tracer.Now(),
		Cause:     cause.Error(),
		Dropped:   p.o.Tracer.Dropped(),
		Metrics:   p.o.Registry.Snapshot(),
	}
	spans, _ := p.ownSpansSince(0)
	if len(spans) > flightSpans {
		spans = spans[len(spans)-flightSpans:]
	}
	d.Spans = spans
	buf := make([]byte, 1<<20)
	d.Goroutines = string(buf[:runtime.Stack(buf, true)])
	if p.col != nil {
		d.Offsets = p.col.Offsets()
	}
	return d
}

// OnFailure is the flight recorder's trigger, called from the worker's
// error path with the epoch error. When the error is a cluster-death
// signal, every rank writes flight-<rank>.json locally; survivors
// best-effort push their dump to rank 0, and rank 0 drains whatever
// arrives within drainWait, folds it into the merged timeline, and writes
// the merged trace. All failures here are swallowed — the flight recorder
// must never mask the error that fired it.
func (p *Plane) OnFailure(cause error) {
	if p == nil || cause == nil || !FlightWorthy(cause) {
		return
	}
	d := p.buildDump(cause)
	if p.o.FlightDir != "" {
		_ = WriteFlightFile(p.o.FlightDir, d)
	}
	if p.o.Rank != 0 {
		if msg, err := packJSON(opFlight, d); err == nil {
			// The huge epoch keeps a dump racing into rank 0's still-live
			// collective buffered as a future message instead of fenced out.
			f := collective.Fence{Epoch: flightEpoch, Phase: phaseFlight}
			_ = p.o.Comm.SendTo(0, f, msg)
		}
		return
	}
	p.col.AddFlight(d)
	for _, m := range p.o.Comm.DrainKind(rpc.KindTelemetry, drainWait) {
		_ = p.col.receive(m, opFlight) // a malformed or misattributed dump is dropped
	}
	if p.o.MergedTrace != "" {
		_ = p.col.WriteMergedTrace(p.o.MergedTrace)
	}
}

// WriteFlightFile writes a dump to dir/flight-<rank>.json, creating dir if
// needed.
func WriteFlightFile(dir string, d FlightDump) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("flight-%d.json", d.Rank))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(d); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadFlightFile parses a flight-<rank>.json file.
func ReadFlightFile(path string) (FlightDump, error) {
	var d FlightDump
	b, err := os.ReadFile(path)
	if err != nil {
		return d, err
	}
	if err := json.Unmarshal(b, &d); err != nil {
		return d, fmt.Errorf("telemetry: %s: %w", path, err)
	}
	return d, nil
}

// createFile opens path for writing, creating parent directories.
func createFile(path string) (*os.File, error) {
	if dir := filepath.Dir(path); dir != "." && dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
	}
	return os.Create(path)
}
