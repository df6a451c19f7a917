// Package rpc provides the message-passing layer of FlexGraph-Go's
// shared-nothing runtime (the paper's "MPI controller", Fig. 12): a compact
// binary codec for feature-synchronisation messages, plus two transports —
// an in-process loopback for single-binary clusters and tests, and a TCP
// transport with length-prefixed frames for real multi-process training.
package rpc

import (
	"encoding/binary"
	"fmt"
	"sync"
)

// MsgKind tags the payload type of a Message.
type MsgKind uint8

// Message kinds exchanged between workers.
const (
	// KindFeatures carries raw feature rows (vertex IDs + row data) — the
	// unoptimised synchronisation path.
	KindFeatures MsgKind = iota + 1
	// KindPartials carries partially aggregated per-task vectors plus
	// contribution counts — the §5 partial-aggregation path.
	KindPartials
	// KindGrads carries flattened parameter gradients for all-reduce.
	KindGrads
	// KindBarrier synchronises epoch/layer boundaries.
	KindBarrier
	// KindPlan carries the communication plan (per-peer partial-aggregation
	// tasks and receive preferences) exchanged before the first epoch of an
	// adjacency.
	KindPlan
	// KindAbort is the fail-fast control message: a worker whose epoch
	// failed broadcasts it so every peer tears down instead of waiting for
	// collectives that will never complete. Epoch/Layer identify the fence
	// the sender failed at.
	KindAbort
	// KindTelemetry carries the telemetry plane's control-plane traffic:
	// clock-sync ping/pong, epoch-fenced span/metrics snapshots pushed to the
	// rank-0 collector, and flight-recorder dumps from survivors of a crash.
	// The payload is JSON packed into IDs (Counts[0] holds the byte length,
	// Dim the telemetry opcode); it rides the collective mailbox like any
	// fenced message, so snapshots never reorder against the collectives
	// they describe.
	KindTelemetry

	numKinds
)

// Valid reports whether k is a known message kind.
func (k MsgKind) Valid() bool { return k >= KindFeatures && k < numKinds }

// String returns the kind name used in traffic tables.
func (k MsgKind) String() string {
	switch k {
	case KindFeatures:
		return "features"
	case KindPartials:
		return "partials"
	case KindGrads:
		return "grads"
	case KindBarrier:
		return "barrier"
	case KindPlan:
		return "plan"
	case KindAbort:
		return "abort"
	case KindTelemetry:
		return "telemetry"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Message is one unit of worker-to-worker communication.
type Message struct {
	Kind  MsgKind
	From  int32
	Layer int32
	Epoch int32
	// IDs are vertex IDs (KindFeatures) or task IDs (KindPartials).
	IDs []int32
	// Counts holds per-task contribution counts (KindPartials only).
	Counts []int32
	// Data holds row-major float32 payload.
	Data []float32
	// Dim is the row width of Data.
	Dim int32
	// Trace is the sender's span ID (0 when tracing is off): the receiver
	// opens its handling span with this as Parent, linking the two ranks'
	// timelines into one causal tree in the merged Perfetto export.
	Trace uint64
}

// headerBytes is the fixed wire-header size: kind byte, seven uint32 fields
// (from, layer, epoch, dim, and the three section lengths), and the 8-byte
// trace/parent-span ID.
const headerBytes = 1 + 4*7 + 8

// NumBytes returns the encoded size, used by traffic accounting.
func (m *Message) NumBytes() int64 {
	return headerBytes + int64(len(m.IDs))*4 + int64(len(m.Counts))*4 + int64(len(m.Data))*4
}

// Encode serialises m into a fresh buffer (little-endian, length-prefixed
// sections). Transports prefer EncodeInto with a pooled frame; Encode is
// the convenience form for tests and one-off callers.
func (m *Message) Encode() []byte {
	buf := make([]byte, m.NumBytes())
	m.EncodeInto(buf)
	return buf
}

// EncodeInto serialises m into buf, which must be exactly NumBytes() long.
// Sections are written with bulk little-endian copies rather than per-word
// appends.
func (m *Message) EncodeInto(buf []byte) {
	if int64(len(buf)) != m.NumBytes() {
		panic(fmt.Sprintf("rpc: EncodeInto buffer %d bytes, want %d", len(buf), m.NumBytes()))
	}
	buf[0] = byte(m.Kind)
	binary.LittleEndian.PutUint32(buf[1:], uint32(m.From))
	binary.LittleEndian.PutUint32(buf[5:], uint32(m.Layer))
	binary.LittleEndian.PutUint32(buf[9:], uint32(m.Epoch))
	binary.LittleEndian.PutUint32(buf[13:], uint32(m.Dim))
	binary.LittleEndian.PutUint32(buf[17:], uint32(len(m.IDs)))
	binary.LittleEndian.PutUint32(buf[21:], uint32(len(m.Counts)))
	binary.LittleEndian.PutUint32(buf[25:], uint32(len(m.Data)))
	binary.LittleEndian.PutUint64(buf[29:], m.Trace)
	off := headerBytes
	putInt32s(buf[off:], m.IDs)
	off += 4 * len(m.IDs)
	putInt32s(buf[off:], m.Counts)
	off += 4 * len(m.Counts)
	putFloat32s(buf[off:], m.Data)
}

// Decode parses a buffer produced by Encode into a fresh message; see
// DecodeInto for what is rejected. The message owns its section slices, so
// buf may be pooled and reused by the caller.
func Decode(buf []byte) (*Message, error) {
	m := new(Message)
	if err := DecodeInto(m, buf); err != nil {
		return nil, err
	}
	return m, nil
}

// DecodeInto parses a buffer produced by Encode into m, overwriting every
// field and reusing the capacity m's sections already have. Unknown message
// kinds are rejected — garbage or version-skewed frames must surface as
// errors, not flow through demultiplexing — and so is a frame whose section
// lengths do not add up to its own length, before any section grows: a
// corrupt length can never make the decoder allocate more than the frame
// holds. On error m's contents are unspecified. The sections are copies, so
// buf may be pooled and reused by the caller.
func DecodeInto(m *Message, buf []byte) error {
	if len(buf) < headerBytes {
		return fmt.Errorf("rpc: message too short (%d bytes)", len(buf))
	}
	kind := MsgKind(buf[0])
	if !kind.Valid() {
		return fmt.Errorf("rpc: unknown message kind %d", buf[0])
	}
	u32 := func(off int) uint32 { return binary.LittleEndian.Uint32(buf[off:]) }
	nIDs, nCounts, nData := int64(u32(17)), int64(u32(21)), int64(u32(25))
	if want := headerBytes + 4*(nIDs+nCounts+nData); int64(len(buf)) != want {
		return fmt.Errorf("rpc: message length %d, want %d", len(buf), want)
	}
	m.Kind = kind
	m.From = int32(u32(1))
	m.Layer = int32(u32(5))
	m.Epoch = int32(u32(9))
	m.Dim = int32(u32(13))
	m.Trace = binary.LittleEndian.Uint64(buf[29:])
	m.IDs = section(m.IDs, int(nIDs))
	m.Counts = section(m.Counts, int(nCounts))
	m.Data = section(m.Data, int(nData))
	off := headerBytes
	getInt32s(m.IDs, buf[off:])
	off += 4 * len(m.IDs)
	getInt32s(m.Counts, buf[off:])
	off += 4 * len(m.Counts)
	getFloat32s(m.Data, buf[off:])
	return nil
}

// section returns a slice of n elements for a decoded section: s's own
// storage when it is large enough, a fresh slice otherwise, nil for an empty
// section (what a message built by hand carries). Every element is
// overwritten by the caller.
func section[T int32 | float32](s []T, n int) []T {
	if n == 0 {
		return nil
	}
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// bulkMessages recycles the messages transports decode feature and partial
// frames into — the [rows, dim] payloads of every layer's exchange — and
// gradMessages those of gradient frames, the all-reduce's ring chunks: the
// sections of both are the only large allocations on the receive path. The
// two are kept apart so a ring chunk cannot take a layer payload's section
// and leave the next payload to allocate its own. A consumer that has folded
// such a message hands it back with Release; one that does not (the data
// plane's gathers, the broadcast all-reduce, tests) leaves it to the GC as
// before. Other kinds never draw from a pool, so a small frame cannot walk
// away with a large message's sections.
var (
	bulkMessages = sync.Pool{New: newMessage}
	gradMessages = sync.Pool{New: newMessage}
)

func newMessage() any { return new(Message) }

// messagePool returns the pool frames of kind k are decoded into, nil for a
// kind decoded into a fresh message.
func messagePool(k MsgKind) *sync.Pool {
	switch k {
	case KindFeatures, KindPartials:
		return &bulkMessages
	case KindGrads:
		return &gradMessages
	}
	return nil
}

// decodeFrame is the transports' Decode: feature, partial and gradient
// frames land in a recycled message, everything else in a fresh one.
func decodeFrame(buf []byte) (*Message, error) {
	var pool *sync.Pool
	if len(buf) > 0 {
		pool = messagePool(MsgKind(buf[0]))
	}
	if pool == nil {
		return Decode(buf)
	}
	m := pool.Get().(*Message)
	if err := DecodeInto(m, buf); err != nil {
		pool.Put(m)
		return nil, err
	}
	return m, nil
}

// Release hands a received feature, partial or gradient message back to the
// transports for reuse. The caller must be the message's only holder and must
// not touch it, or any of its sections, afterwards.
func (m *Message) Release() {
	if pool := messagePool(m.Kind); pool != nil {
		pool.Put(m)
	}
}

// PackBytes packs an arbitrary byte payload into an []int32 section (4
// bytes per word, little-endian, zero-padded). KindTelemetry uses it to
// ship JSON through the IDs section without widening the wire format; the
// original byte length travels separately (Counts[0] by convention).
func PackBytes(b []byte) []int32 {
	out := make([]int32, (len(b)+3)/4)
	var word [4]byte
	for i := range out {
		copy(word[:], b[4*i:])
		if rem := len(b) - 4*i; rem < 4 {
			for j := rem; j < 4; j++ {
				word[j] = 0
			}
		}
		out[i] = int32(binary.LittleEndian.Uint32(word[:]))
	}
	return out
}

// UnpackBytes reverses PackBytes, returning the first n bytes. It returns
// nil when the words cannot hold n bytes (truncated or corrupt frame).
func UnpackBytes(words []int32, n int) []byte {
	if n < 0 || n > 4*len(words) {
		return nil
	}
	buf := make([]byte, 4*len(words))
	for i, w := range words {
		binary.LittleEndian.PutUint32(buf[4*i:], uint32(w))
	}
	return buf[:n]
}
