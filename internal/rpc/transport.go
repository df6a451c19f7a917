package rpc

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/metrics"
)

// Transport moves encoded messages between the workers of one cluster.
// Send must be safe for concurrent use; Recv delivers messages addressed to
// this worker in arrival order.
type Transport interface {
	// Rank returns this worker's index.
	Rank() int
	// Size returns the number of workers.
	Size() int
	// Send delivers msg to worker `to`.
	Send(to int, msg *Message) error
	// Recv blocks for the next incoming message.
	Recv() (*Message, error)
	// RecvTimeout blocks up to d for the next incoming message and returns
	// ErrRecvTimeout if none arrives in time; d <= 0 blocks like Recv. The
	// collective layer's receive deadlines are built on this.
	RecvTimeout(d time.Duration) (*Message, error)
	// Close tears the transport down; blocked Recv calls return an error.
	Close() error
}

// ErrRecvTimeout is returned by RecvTimeout when the wait expires without a
// message. It is a transient condition, not a transport failure: the caller
// may keep receiving.
var ErrRecvTimeout = errors.New("rpc: receive timed out")

// MetricsSetter is implemented by transports that can record send latency
// and connection-health counters into a metrics registry. Both built-in
// transports implement it; instrumentation is off until SetMetrics is
// called, at which point each site costs one histogram observation.
type MetricsSetter interface {
	SetMetrics(*metrics.Registry)
}

// transportMetrics holds a transport's registered instruments. The zero
// value (all nil) is fully disabled — the metric types are nil-safe.
type transportMetrics struct {
	sendNS      *metrics.Histogram
	sendBytes   *metrics.Counter
	dialRetries *metrics.Counter
}

func newTransportMetrics(r *metrics.Registry, rank int) transportMetrics {
	return transportMetrics{
		sendNS:      r.Histogram(fmt.Sprintf("rpc.send_ns.rank%d", rank)),
		sendBytes:   r.Counter(fmt.Sprintf("rpc.sent_bytes.rank%d", rank)),
		dialRetries: r.Counter(fmt.Sprintf("rpc.dial_retries.rank%d", rank)),
	}
}

// ---------------------------------------------------------------------------
// Loopback: in-process transport over channels.

// LoopbackNetwork connects k in-process workers through buffered channels.
type LoopbackNetwork struct {
	inboxes []chan *Message
	closed  chan struct{}
	once    sync.Once
}

// NewLoopbackNetwork returns a network of size workers.
func NewLoopbackNetwork(size int) *LoopbackNetwork {
	n := &LoopbackNetwork{
		inboxes: make([]chan *Message, size),
		closed:  make(chan struct{}),
	}
	for i := range n.inboxes {
		n.inboxes[i] = make(chan *Message, 1024)
	}
	return n
}

// Transport returns the endpoint for the given worker rank.
func (n *LoopbackNetwork) Transport(rank int) Transport {
	return &loopback{net: n, rank: rank}
}

// Close shuts the network down.
func (n *LoopbackNetwork) Close() {
	n.once.Do(func() { close(n.closed) })
}

type loopback struct {
	net  *LoopbackNetwork
	rank int
	m    transportMetrics
}

func (l *loopback) Rank() int { return l.rank }
func (l *loopback) Size() int { return len(l.net.inboxes) }

// SetMetrics enables send-latency and byte accounting on this endpoint.
func (l *loopback) SetMetrics(r *metrics.Registry) {
	l.m = newTransportMetrics(r, l.rank)
}

func (l *loopback) Send(to int, msg *Message) error {
	if to < 0 || to >= len(l.net.inboxes) {
		return fmt.Errorf("rpc: send to unknown worker %d", to)
	}
	var t0 time.Time
	if l.m.sendNS != nil {
		t0 = time.Now()
	}
	// Encode/decode round trip so loopback exercises the same codec as
	// TCP and byte accounting is identical.
	frame := GetFrame(int(msg.NumBytes()))
	msg.EncodeInto(frame)
	dup, err := decodeFrame(frame)
	PutFrame(frame)
	if err != nil {
		return err
	}
	if l.m.sendNS != nil {
		defer func() {
			l.m.sendNS.ObserveSince(t0)
			l.m.sendBytes.Add(msg.NumBytes())
		}()
	}
	select {
	case l.net.inboxes[to] <- dup:
		return nil
	case <-l.net.closed:
		return fmt.Errorf("rpc: network closed")
	}
}

func (l *loopback) Recv() (*Message, error) {
	select {
	case m := <-l.net.inboxes[l.rank]:
		return m, nil
	case <-l.net.closed:
		// Drain any message racing with close.
		select {
		case m := <-l.net.inboxes[l.rank]:
			return m, nil
		default:
			return nil, io.EOF
		}
	}
}

func (l *loopback) RecvTimeout(d time.Duration) (*Message, error) {
	if d <= 0 {
		return l.Recv()
	}
	// Fast path: a delivered message never pays for a timer.
	select {
	case m := <-l.net.inboxes[l.rank]:
		return m, nil
	default:
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case m := <-l.net.inboxes[l.rank]:
		return m, nil
	case <-timer.C:
		return nil, ErrRecvTimeout
	case <-l.net.closed:
		select {
		case m := <-l.net.inboxes[l.rank]:
			return m, nil
		default:
			return nil, io.EOF
		}
	}
}

func (l *loopback) Close() error { return nil }

// ---------------------------------------------------------------------------
// TCP: length-prefixed frames over real sockets.

// TCPTransport is a fully connected mesh: worker i listens on addrs[i] and
// dials every peer. Frames are 4-byte little-endian length + encoded
// message.
type TCPTransport struct {
	rank  int
	addrs []string

	// DialAttempts bounds how often Connect retries a failed dial before
	// giving up on a peer. Peers of a mesh start concurrently, so the first
	// dials routinely race a peer that has not bound its listener yet.
	DialAttempts int
	// DialBackoff is the initial retry delay; it doubles per attempt and is
	// capped at dialBackoffCap.
	DialBackoff time.Duration

	ln    net.Listener
	conns []net.Conn
	wmu   []sync.Mutex
	inbox chan *Message
	errs  chan error
	done  chan struct{}
	once  sync.Once

	// eofs counts peer connections that closed cleanly between frames;
	// allEOF is closed when every peer has. A clean EOF means the peer
	// exited after sending everything (workers finish collectives at
	// different times), so it must not abort receivers still waiting on
	// other peers — only when no connection can produce data does Recv
	// report end of stream.
	eofs   int
	eofMu  sync.Mutex
	allEOF chan struct{}

	m transportMetrics
}

const dialBackoffCap = 500 * time.Millisecond

// NewTCPTransport starts worker rank of a mesh over addrs. It listens
// immediately; Connect must be called on all workers (concurrently) to
// establish the mesh.
func NewTCPTransport(rank int, addrs []string) (*TCPTransport, error) {
	ln, err := net.Listen("tcp", addrs[rank])
	if err != nil {
		return nil, fmt.Errorf("rpc: listen %s: %w", addrs[rank], err)
	}
	t := &TCPTransport{
		rank:         rank,
		addrs:        addrs,
		DialAttempts: 40,
		DialBackoff:  25 * time.Millisecond,
		ln:           ln,
		conns:        make([]net.Conn, len(addrs)),
		wmu:          make([]sync.Mutex, len(addrs)),
		inbox:        make(chan *Message, 1024),
		errs:         make(chan error, len(addrs)),
		done:         make(chan struct{}),
		allEOF:       make(chan struct{}),
	}
	return t, nil
}

// SetMetrics enables send-latency, byte and dial-retry accounting. Call
// before Connect so startup dial retries are counted.
func (t *TCPTransport) SetMetrics(r *metrics.Registry) {
	t.m = newTransportMetrics(r, t.rank)
}

// dialPeer dials addr with bounded exponential backoff, covering the mesh
// startup race where a higher-rank peer has not bound its listener yet.
func (t *TCPTransport) dialPeer(addr string) (net.Conn, error) {
	attempts := t.DialAttempts
	if attempts <= 0 {
		attempts = 1
	}
	delay := t.DialBackoff
	var lastErr error
	for a := 0; a < attempts; a++ {
		conn, err := net.Dial("tcp", addr)
		if err == nil {
			return conn, nil
		}
		lastErr = err
		t.m.dialRetries.Inc()
		if a == attempts-1 {
			break
		}
		select {
		case <-t.done:
			return nil, fmt.Errorf("rpc: dial %s: transport closed", addr)
		case <-time.After(delay):
		}
		if delay *= 2; delay > dialBackoffCap {
			delay = dialBackoffCap
		}
	}
	return nil, fmt.Errorf("rpc: dial %s (%d attempts): %w", addr, attempts, lastErr)
}

// Addr returns the transport's actual listen address (useful with ":0").
func (t *TCPTransport) Addr() string { return t.ln.Addr().String() }

// Connect establishes the mesh: dials peers with rank > self and accepts
// connections from peers with rank < self. Every connection starts with a
// 4-byte hello carrying the dialer's rank.
func (t *TCPTransport) Connect() error {
	var wg sync.WaitGroup
	errc := make(chan error, len(t.addrs))
	// Accept from lower ranks.
	expect := t.rank
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < expect; i++ {
			conn, err := t.ln.Accept()
			if err != nil {
				errc <- err
				return
			}
			var hello [4]byte
			if _, err := io.ReadFull(conn, hello[:]); err != nil {
				errc <- err
				return
			}
			peer := int(binary.LittleEndian.Uint32(hello[:]))
			t.conns[peer] = conn
			go t.readLoop(conn)
		}
	}()
	// Dial higher ranks (with retry: their listeners may not be up yet).
	for peer := t.rank + 1; peer < len(t.addrs); peer++ {
		wg.Add(1)
		go func(peer int) {
			defer wg.Done()
			conn, err := t.dialPeer(t.addrs[peer])
			if err != nil {
				errc <- err
				return
			}
			var hello [4]byte
			binary.LittleEndian.PutUint32(hello[:], uint32(t.rank))
			if _, err := conn.Write(hello[:]); err != nil {
				errc <- err
				return
			}
			t.conns[peer] = conn
			go t.readLoop(conn)
		}(peer)
	}
	wg.Wait()
	// Surface every connect failure, not just the first one buffered.
	close(errc)
	var errs []error
	for err := range errc {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

// connClosed records one peer connection ending. A clean EOF between frames
// counts toward allEOF; anything else (mid-frame truncation, resets, decode
// failures) is a hard transport error surfaced to Recv immediately.
func (t *TCPTransport) connClosed(err error) {
	select {
	case <-t.done:
		return
	default:
	}
	if errors.Is(err, io.EOF) {
		t.eofMu.Lock()
		if t.eofs++; t.eofs == len(t.addrs)-1 {
			close(t.allEOF)
		}
		t.eofMu.Unlock()
		return
	}
	t.errs <- err
}

func (t *TCPTransport) readLoop(conn net.Conn) {
	r := bufio.NewReaderSize(conn, 1<<16)
	for {
		var lenBuf [4]byte
		if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
			t.connClosed(err)
			return
		}
		n := binary.LittleEndian.Uint32(lenBuf[:])
		frame := GetFrame(int(n))
		if _, err := io.ReadFull(r, frame); err != nil {
			t.errs <- err
			return
		}
		msg, err := decodeFrame(frame)
		PutFrame(frame)
		if err != nil {
			t.errs <- err
			return
		}
		select {
		case t.inbox <- msg:
		case <-t.done:
			return
		}
	}
}

// Rank returns this worker's index.
func (t *TCPTransport) Rank() int { return t.rank }

// Size returns the mesh size.
func (t *TCPTransport) Size() int { return len(t.addrs) }

// Send writes a frame to the peer's connection.
func (t *TCPTransport) Send(to int, msg *Message) error {
	if to == t.rank {
		select {
		case t.inbox <- msg:
			return nil
		case <-t.done:
			return io.EOF
		}
	}
	conn := t.conns[to]
	if conn == nil {
		return fmt.Errorf("rpc: no connection to worker %d", to)
	}
	// Length prefix and body share one pooled frame and one Write call.
	var t0 time.Time
	if t.m.sendNS != nil {
		t0 = time.Now()
	}
	n := int(msg.NumBytes())
	frame := GetFrame(4 + n)
	binary.LittleEndian.PutUint32(frame, uint32(n))
	msg.EncodeInto(frame[4:])
	t.wmu[to].Lock()
	_, err := conn.Write(frame)
	t.wmu[to].Unlock()
	PutFrame(frame)
	if t.m.sendNS != nil {
		t.m.sendNS.ObserveSince(t0)
		t.m.sendBytes.Add(int64(n))
	}
	return err
}

// Recv blocks for the next message or transport error. Delivered messages
// win over shutdown signals: a peer that sends its final frames and exits
// closes the connection behind them, and the data must not be outraced by
// its EOF (each read loop enqueues every frame before reporting its
// connection closed). End of stream is only reported once every peer has
// closed cleanly and the inbox is drained.
func (t *TCPTransport) Recv() (*Message, error) {
	select {
	case m := <-t.inbox:
		return m, nil
	default:
	}
	select {
	case m := <-t.inbox:
		return m, nil
	case err := <-t.errs:
		return nil, err
	case <-t.allEOF:
		// Every peer finished; drain anything that raced ahead of the
		// last close before declaring the stream over.
		select {
		case m := <-t.inbox:
			return m, nil
		default:
			return nil, io.EOF
		}
	case <-t.done:
		return nil, io.EOF
	}
}

// RecvTimeout is Recv with a bounded wait; it returns ErrRecvTimeout when d
// elapses without a message, transport error or end of stream.
func (t *TCPTransport) RecvTimeout(d time.Duration) (*Message, error) {
	if d <= 0 {
		return t.Recv()
	}
	select {
	case m := <-t.inbox:
		return m, nil
	default:
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case m := <-t.inbox:
		return m, nil
	case <-timer.C:
		return nil, ErrRecvTimeout
	case err := <-t.errs:
		return nil, err
	case <-t.allEOF:
		select {
		case m := <-t.inbox:
			return m, nil
		default:
			return nil, io.EOF
		}
	case <-t.done:
		return nil, io.EOF
	}
}

// Close shuts down the listener and all connections.
func (t *TCPTransport) Close() error {
	t.once.Do(func() {
		close(t.done)
		t.ln.Close()
		for _, c := range t.conns {
			if c != nil {
				c.Close()
			}
		}
	})
	return nil
}

var (
	_ Transport = (*loopback)(nil)
	_ Transport = (*TCPTransport)(nil)
)
