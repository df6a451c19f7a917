// Package metrics provides the stage timers and traffic counters used by
// the evaluation harness: per-stage wall-clock breakdowns (the paper's
// Table 4) and message/byte counters for the communication optimisations
// (§5, Fig. 15).
package metrics

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Stage identifies one phase of a training epoch.
type Stage int

// Stages of a NAU epoch. NeighborSelection, Aggregation and Update are the
// three NAU stages of the paper's Fig. 4; Backward and Sync cover autograd
// and distributed feature synchronisation.
const (
	StageNeighborSelection Stage = iota
	StageAggregation
	StageUpdate
	StageBackward
	StageSync
	numStages
)

// StageCount is the number of stages a Breakdown tracks — the row count of
// per-stage tables (straggler reports, gradient-fence payload slots).
const StageCount = int(numStages)

// String returns the stage name as printed in Table 4.
func (s Stage) String() string {
	switch s {
	case StageNeighborSelection:
		return "Nbr.Selection"
	case StageAggregation:
		return "Aggregation"
	case StageUpdate:
		return "Update"
	case StageBackward:
		return "Backward"
	case StageSync:
		return "Sync"
	default:
		return fmt.Sprintf("Stage(%d)", int(s))
	}
}

// MsgClass identifies a message kind for per-kind traffic accounting. The
// values mirror the rpc message kinds (without importing rpc, which sits
// above metrics), so Fig. 15-style reports can split plan, feature, partial
// and gradient bytes.
type MsgClass int

// Traffic classes, one per wire message kind.
const (
	ClassFeatures MsgClass = iota
	ClassPartials
	ClassGrads
	ClassBarrier
	ClassPlan
	ClassAbort
	ClassTelemetry
	NumMsgClasses
)

// String returns the class name as printed in traffic tables.
func (c MsgClass) String() string {
	switch c {
	case ClassFeatures:
		return "features"
	case ClassPartials:
		return "partials"
	case ClassGrads:
		return "grads"
	case ClassBarrier:
		return "barrier"
	case ClassPlan:
		return "plan"
	case ClassAbort:
		return "abort"
	case ClassTelemetry:
		return "telemetry"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// Breakdown accumulates per-stage durations and communication counters. It
// is safe for concurrent use.
type Breakdown struct {
	mu    sync.Mutex
	times [numStages]time.Duration

	MessagesSent atomic.Int64
	BytesSent    atomic.Int64
	MessagesRecv atomic.Int64
	BytesRecv    atomic.Int64

	// Aborts counts abort control messages observed (a peer's epoch failed
	// and it told us); Timeouts counts receive deadlines that expired. Both
	// are fail-fast events: a healthy run reports zero for each.
	Aborts   atomic.Int64
	Timeouts atomic.Int64

	sentBy [NumMsgClasses]atomic.Int64
	recvBy [NumMsgClasses]atomic.Int64
}

// CountAbort records one observed abort control message.
func (b *Breakdown) CountAbort() { b.Aborts.Add(1) }

// CountTimeout records one expired receive deadline.
func (b *Breakdown) CountTimeout() { b.Timeouts.Add(1) }

// CountSent records one outgoing message of class c with the given encoded
// size, updating both the aggregate and the per-kind counters.
func (b *Breakdown) CountSent(c MsgClass, bytes int64) {
	b.MessagesSent.Add(1)
	b.BytesSent.Add(bytes)
	if c >= 0 && c < NumMsgClasses {
		b.sentBy[c].Add(bytes)
	}
}

// CountRecv records one incoming message of class c.
func (b *Breakdown) CountRecv(c MsgClass, bytes int64) {
	b.MessagesRecv.Add(1)
	b.BytesRecv.Add(bytes)
	if c >= 0 && c < NumMsgClasses {
		b.recvBy[c].Add(bytes)
	}
}

// SentBytes returns the bytes sent for one message class.
func (b *Breakdown) SentBytes(c MsgClass) int64 { return b.sentBy[c].Load() }

// RecvBytes returns the bytes received for one message class.
func (b *Breakdown) RecvBytes(c MsgClass) int64 { return b.recvBy[c].Load() }

// Add accumulates d into stage s. Like the registry's instruments it is a
// no-op on a nil Breakdown, so a forward-only caller can run untimed.
func (b *Breakdown) Add(s Stage, d time.Duration) {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.times[s] += d
	b.mu.Unlock()
}

// Time runs fn and accumulates its duration into stage s. The recording is
// deferred, so a stage that panics still contributes its elapsed time.
func (b *Breakdown) Time(s Stage, fn func()) {
	start := time.Now()
	defer func() { b.Add(s, time.Since(start)) }()
	fn()
}

// StageTimes returns a snapshot of all stage durations, indexed by Stage
// (length StageCount) — the per-epoch delta source for straggler reports.
// A nil Breakdown reports zeros.
func (b *Breakdown) StageTimes() [StageCount]time.Duration {
	if b == nil {
		return [StageCount]time.Duration{}
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.times
}

// Get returns the accumulated duration of stage s.
func (b *Breakdown) Get(s Stage) time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.times[s]
}

// NAUTotal returns the sum of the three NAU stages only, the denominator of
// Table 4's percentages.
func (b *Breakdown) NAUTotal() time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.times[StageNeighborSelection] + b.times[StageAggregation] + b.times[StageUpdate]
}

// Merge adds other's counters into b.
func (b *Breakdown) Merge(other *Breakdown) {
	other.mu.Lock()
	times := other.times
	other.mu.Unlock()
	b.mu.Lock()
	for i := range b.times {
		b.times[i] += times[i]
	}
	b.mu.Unlock()
	b.MessagesSent.Add(other.MessagesSent.Load())
	b.BytesSent.Add(other.BytesSent.Load())
	b.MessagesRecv.Add(other.MessagesRecv.Load())
	b.BytesRecv.Add(other.BytesRecv.Load())
	b.Aborts.Add(other.Aborts.Load())
	b.Timeouts.Add(other.Timeouts.Load())
	for c := range b.sentBy {
		b.sentBy[c].Add(other.sentBy[c].Load())
		b.recvBy[c].Add(other.recvBy[c].Load())
	}
}

// Reset zeroes all counters.
func (b *Breakdown) Reset() {
	b.mu.Lock()
	for i := range b.times {
		b.times[i] = 0
	}
	b.mu.Unlock()
	b.MessagesSent.Store(0)
	b.BytesSent.Store(0)
	b.MessagesRecv.Store(0)
	b.BytesRecv.Store(0)
	b.Aborts.Store(0)
	b.Timeouts.Store(0)
	for c := range b.sentBy {
		b.sentBy[c].Store(0)
		b.recvBy[c].Store(0)
	}
}

// Table4Row formats the NAU-stage breakdown like the paper's Table 4:
// absolute seconds and percentage of the NAU total per stage.
func (b *Breakdown) Table4Row(model string) string {
	total := b.NAUTotal()
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-8s", model)
	for _, s := range []Stage{StageNeighborSelection, StageAggregation, StageUpdate} {
		d := b.Get(s)
		pct := 0.0
		if total > 0 {
			pct = 100 * float64(d) / float64(total)
		}
		fmt.Fprintf(&sb, "  %s %8.3fs (%5.1f%%)", s, d.Seconds(), pct)
	}
	return sb.String()
}

// TrafficTable formats the per-kind byte counters like the paper's Fig. 15
// traffic accounting: one line per message class with sent/received bytes,
// plus the aggregate totals.
func (b *Breakdown) TrafficTable() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-10s %14s %14s\n", "kind", "sent (B)", "recv (B)")
	for c := MsgClass(0); c < NumMsgClasses; c++ {
		s, r := b.sentBy[c].Load(), b.recvBy[c].Load()
		if s == 0 && r == 0 {
			continue
		}
		fmt.Fprintf(&sb, "%-10s %14d %14d\n", c, s, r)
	}
	fmt.Fprintf(&sb, "%-10s %14d %14d  (%d msgs out, %d in)",
		"total", b.BytesSent.Load(), b.BytesRecv.Load(),
		b.MessagesSent.Load(), b.MessagesRecv.Load())
	if aborts, timeouts := b.Aborts.Load(), b.Timeouts.Load(); aborts > 0 || timeouts > 0 {
		fmt.Fprintf(&sb, "\n%-10s aborts=%d timeouts=%d", "faults", aborts, timeouts)
	}
	return sb.String()
}
