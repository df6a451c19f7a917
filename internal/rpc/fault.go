package rpc

import (
	"errors"
	"sync"
	"time"
)

// ErrCrashed is returned by every operation on a FaultTransport whose crash
// schedule has fired: the wrapped worker is dead as far as the cluster is
// concerned.
var ErrCrashed = errors.New("rpc: transport crashed (fault injection)")

// FaultConfig is a deterministic fault schedule for a FaultTransport. All
// probabilistic faults draw from one seeded generator in send order, so a
// given (seed, message sequence) always produces the same drops, delays and
// duplicates — chaos tests are reproducible.
type FaultConfig struct {
	// Seed drives the per-message fault draws.
	Seed uint64
	// DropProb is the probability an outgoing message is silently discarded.
	DropProb float64
	// DelayProb is the probability an outgoing message is held for Delay
	// before being written (synchronously, so per-peer FIFO order is kept).
	DelayProb float64
	// Delay is the hold time for delayed messages.
	Delay time.Duration
	// DupProb is the probability an outgoing message is delivered twice.
	DupProb float64
	// CrashAtFence enables the crash schedule: the first outgoing message
	// with Epoch >= CrashEpoch and Layer >= CrashPhase kills the transport
	// instead of being sent — simulating a worker dying mid-epoch. After the
	// crash every operation returns ErrCrashed and the inner transport is
	// closed.
	CrashAtFence bool
	CrashEpoch   int32
	CrashPhase   int32
}

// FaultTransport wraps a Transport with the deterministic fault schedule in
// FaultConfig. It is the chaos harness for the fail-fast runtime: drops
// exercise receive deadlines, duplicates exercise the mailbox's
// duplicate-sender detection, delays exercise deadline headroom, and the
// crash schedule exercises abort propagation across surviving peers.
type FaultTransport struct {
	inner Transport
	cfg   FaultConfig

	mu      sync.Mutex
	rng     uint64
	crashed bool
}

// NewFaultTransport wraps inner with the given fault schedule. It is a test
// reference: the chaos, crash-restart and store tests inject faults through
// it, and no production path builds one.
func NewFaultTransport(inner Transport, cfg FaultConfig) *FaultTransport {
	return &FaultTransport{inner: inner, cfg: cfg, rng: cfg.Seed}
}

// splitmix64: one 64-bit draw per fault decision.
func (f *FaultTransport) draw() float64 {
	f.rng += 0x9e3779b97f4a7c15
	z := f.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11) / (1 << 53)
}

// Rank returns the wrapped transport's rank.
func (f *FaultTransport) Rank() int { return f.inner.Rank() }

// Size returns the wrapped transport's cluster size.
func (f *FaultTransport) Size() int { return f.inner.Size() }

// Crashed reports whether the crash schedule has fired.
func (f *FaultTransport) Crashed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.crashed
}

// Send applies the fault schedule to msg: it may crash the transport, drop
// the message, hold it for the configured delay, or deliver it twice.
func (f *FaultTransport) Send(to int, msg *Message) error {
	f.mu.Lock()
	if f.crashed {
		f.mu.Unlock()
		return ErrCrashed
	}
	if f.cfg.CrashAtFence && msg.Epoch >= f.cfg.CrashEpoch && msg.Layer >= f.cfg.CrashPhase {
		f.crashed = true
		f.mu.Unlock()
		f.inner.Close()
		return ErrCrashed
	}
	drop := f.cfg.DropProb > 0 && f.draw() < f.cfg.DropProb
	delay := f.cfg.DelayProb > 0 && f.draw() < f.cfg.DelayProb
	dup := f.cfg.DupProb > 0 && f.draw() < f.cfg.DupProb
	f.mu.Unlock()

	if drop {
		return nil
	}
	if delay {
		time.Sleep(f.cfg.Delay)
	}
	if err := f.inner.Send(to, msg); err != nil {
		return err
	}
	if dup {
		return f.inner.Send(to, msg)
	}
	return nil
}

// Recv delegates to the wrapped transport; after a crash it reports
// ErrCrashed like every other operation.
func (f *FaultTransport) Recv() (*Message, error) {
	if f.Crashed() {
		return nil, ErrCrashed
	}
	m, err := f.inner.Recv()
	if err != nil && f.Crashed() {
		return nil, ErrCrashed
	}
	return m, err
}

// RecvTimeout delegates with the same crash masking as Recv.
func (f *FaultTransport) RecvTimeout(d time.Duration) (*Message, error) {
	if f.Crashed() {
		return nil, ErrCrashed
	}
	m, err := f.inner.RecvTimeout(d)
	if err != nil && !errors.Is(err, ErrRecvTimeout) && f.Crashed() {
		return nil, ErrCrashed
	}
	return m, err
}

// Close closes the wrapped transport.
func (f *FaultTransport) Close() error { return f.inner.Close() }

var _ Transport = (*FaultTransport)(nil)
