package rpc

import (
	"runtime"
	"sync"
	"testing"
	"testing/quick"
)

func TestCodecRoundTrip(t *testing.T) {
	m := &Message{
		Kind:   KindPartials,
		From:   3,
		Layer:  1,
		Epoch:  7,
		IDs:    []int32{5, 9, 2},
		Counts: []int32{1, 2, 3},
		Data:   []float32{1.5, -2.25, 0, 3e8},
		Dim:    4,
	}
	got, err := Decode(m.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != m.Kind || got.From != m.From || got.Layer != m.Layer ||
		got.Epoch != m.Epoch || got.Dim != m.Dim {
		t.Fatalf("header mismatch: %+v vs %+v", got, m)
	}
	for i := range m.IDs {
		if got.IDs[i] != m.IDs[i] {
			t.Fatal("IDs mismatch")
		}
	}
	for i := range m.Counts {
		if got.Counts[i] != m.Counts[i] {
			t.Fatal("Counts mismatch")
		}
	}
	for i := range m.Data {
		if got.Data[i] != m.Data[i] {
			t.Fatal("Data mismatch")
		}
	}
}

func TestCodecEmptySections(t *testing.T) {
	m := &Message{Kind: KindBarrier, From: 0, Epoch: 1}
	got, err := Decode(m.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != KindBarrier || len(got.IDs) != 0 || len(got.Data) != 0 {
		t.Fatalf("barrier round trip: %+v", got)
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode([]byte{1, 2, 3}); err == nil {
		t.Fatal("short buffer must error")
	}
	m := (&Message{Kind: KindFeatures, IDs: []int32{1}}).Encode()
	if _, err := Decode(m[:len(m)-2]); err == nil {
		t.Fatal("truncated buffer must error")
	}
}

func TestCodecQuick(t *testing.T) {
	f := func(from, layer, epoch int32, ids []int32, data []float32) bool {
		m := &Message{Kind: KindFeatures, From: from, Layer: layer, Epoch: epoch, IDs: ids, Data: data, Dim: 1}
		got, err := Decode(m.Encode())
		if err != nil {
			return false
		}
		if len(got.IDs) != len(ids) || len(got.Data) != len(data) {
			return false
		}
		for i := range ids {
			if got.IDs[i] != ids[i] {
				return false
			}
		}
		for i := range data {
			// NaN != NaN, compare bit-exactly via equality except NaN.
			if got.Data[i] != data[i] && data[i] == data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestNumBytesMatchesEncoding(t *testing.T) {
	m := &Message{Kind: KindFeatures, IDs: []int32{1, 2}, Counts: []int32{7}, Data: []float32{1, 2, 3}, Dim: 3}
	if int64(len(m.Encode())) != m.NumBytes() {
		t.Fatalf("NumBytes %d != encoded length %d", m.NumBytes(), len(m.Encode()))
	}
}

func TestLoopbackDelivery(t *testing.T) {
	netw := NewLoopbackNetwork(3)
	defer netw.Close()
	t0, t2 := netw.Transport(0), netw.Transport(2)
	if t0.Rank() != 0 || t0.Size() != 3 {
		t.Fatal("rank/size wrong")
	}
	want := &Message{Kind: KindFeatures, From: 0, IDs: []int32{42}, Data: []float32{1}, Dim: 1}
	if err := t0.Send(2, want); err != nil {
		t.Fatal(err)
	}
	got, err := t2.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if got.IDs[0] != 42 || got.From != 0 {
		t.Fatalf("got %+v", got)
	}
}

func TestLoopbackSendToUnknown(t *testing.T) {
	netw := NewLoopbackNetwork(1)
	defer netw.Close()
	if err := netw.Transport(0).Send(5, &Message{Kind: KindBarrier}); err == nil {
		t.Fatal("send to unknown rank must error")
	}
}

func TestTCPMesh(t *testing.T) {
	const k = 3
	addrs := make([]string, k)
	trans := make([]*TCPTransport, k)
	// Listen on ephemeral ports one at a time so later transports know the
	// earlier addresses.
	for i := 0; i < k; i++ {
		full := make([]string, k)
		copy(full, addrs)
		for j := i; j < k; j++ {
			if full[j] == "" {
				full[j] = "127.0.0.1:0"
			}
		}
		tt, err := NewTCPTransport(i, full)
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = tt.Addr()
		trans[i] = tt
	}
	// Fix up the address views (each transport only needs peer addresses
	// with higher rank, which are now known) — rebuild with real addrs.
	for i := 0; i < k; i++ {
		trans[i].addrs = addrs
	}
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := trans[i].Connect(); err != nil {
				t.Errorf("connect %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	defer func() {
		for _, tr := range trans {
			tr.Close()
		}
	}()

	// Every worker sends to every other worker.
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			if i == j {
				continue
			}
			msg := &Message{Kind: KindFeatures, From: int32(i), IDs: []int32{int32(100*i + j)}, Dim: 0}
			if err := trans[i].Send(j, msg); err != nil {
				t.Fatalf("send %d->%d: %v", i, j, err)
			}
		}
	}
	for j := 0; j < k; j++ {
		seen := map[int32]bool{}
		for i := 0; i < k-1; i++ {
			m, err := trans[j].Recv()
			if err != nil {
				t.Fatalf("recv at %d: %v", j, err)
			}
			seen[m.From] = true
			if m.IDs[0] != int32(100*int(m.From)+j) {
				t.Fatalf("worker %d got wrong payload from %d: %d", j, m.From, m.IDs[0])
			}
		}
		if len(seen) != k-1 {
			t.Fatalf("worker %d heard from %d peers", j, len(seen))
		}
	}
}

func TestTCPSelfSend(t *testing.T) {
	tt, err := NewTCPTransport(0, []string{"127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer tt.Close()
	if err := tt.Connect(); err != nil {
		t.Fatal(err)
	}
	if err := tt.Send(0, &Message{Kind: KindBarrier, From: 0}); err != nil {
		t.Fatal(err)
	}
	m, err := tt.Recv()
	if err != nil || m.Kind != KindBarrier {
		t.Fatalf("self-send failed: %v %v", m, err)
	}
}

// Decode must never panic on arbitrary input — length-prefixed garbage from
// a misbehaving peer must surface as errors.
func TestDecodeNeverPanicsQuick(t *testing.T) {
	f := func(data []byte) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("Decode panicked on %v: %v", data, r)
			}
		}()
		m, err := Decode(data)
		// Either a structural error, or a message whose sections are
		// internally consistent.
		if err == nil && m == nil {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Mutating any byte of a valid frame must not panic either.
func TestDecodeBitflipRobust(t *testing.T) {
	base := (&Message{Kind: KindPartials, From: 1, Layer: 2, Epoch: 3,
		IDs: []int32{4, 5}, Counts: []int32{6}, Data: []float32{7, 8}, Dim: 2}).Encode()
	for i := range base {
		for _, flip := range []byte{0x01, 0x80, 0xFF} {
			mut := append([]byte(nil), base...)
			mut[i] ^= flip
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("Decode panicked with byte %d flipped: %v", i, r)
					}
				}()
				Decode(mut)
			}()
		}
	}
}

// TestDecodeIntoReusesSections: decoding into a message that has been used
// before overwrites every field, reuses the capacity its sections have — no
// allocation at all once they are large enough — and leaves nothing of the
// previous frame behind, including sections the new frame does not have.
func TestDecodeIntoReusesSections(t *testing.T) {
	big := (&Message{Kind: KindPartials, From: 2, Layer: 1, Epoch: 5, Dim: 4, Trace: 77,
		IDs: []int32{4, 5, 6}, Counts: []int32{1, 1, 2}, Data: make([]float32, 12)}).Encode()
	small := (&Message{Kind: KindFeatures, From: 1, Epoch: 6, Dim: 2,
		IDs: []int32{9}, Data: []float32{0.5, -1}}).Encode()
	var m Message
	if err := DecodeInto(&m, big); err != nil {
		t.Fatal(err)
	}
	ids, data := &m.IDs[0], &m.Data[0]
	if err := DecodeInto(&m, small); err != nil {
		t.Fatal(err)
	}
	if m.Kind != KindFeatures || m.From != 1 || m.Layer != 0 || m.Epoch != 6 || m.Dim != 2 || m.Trace != 0 {
		t.Fatalf("header of the previous frame survived: %+v", m)
	}
	if len(m.IDs) != 1 || m.IDs[0] != 9 || m.Counts != nil || len(m.Data) != 2 || m.Data[1] != -1 {
		t.Fatalf("sections: %+v", m)
	}
	if &m.IDs[0] != ids || &m.Data[0] != data {
		t.Fatal("a frame that fits the message's sections was decoded into fresh ones")
	}
	if allocs := testing.AllocsPerRun(20, func() {
		if err := DecodeInto(&m, small); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("DecodeInto into a large-enough message allocates %v objects", allocs)
	}
}

// TestDecodeIntoChecksLengthBeforeGrowing: a header whose section lengths do
// not add up to the frame is rejected before any section is sized from it —
// a corrupt length must not be able to make the decoder allocate.
func TestDecodeIntoChecksLengthBeforeGrowing(t *testing.T) {
	frame := (&Message{Kind: KindFeatures, IDs: []int32{1, 2}, Data: make([]float32, 8), Dim: 4}).Encode()
	for _, off := range []int{17, 21, 25} { // the three section lengths
		bad := append([]byte(nil), frame...)
		bad[off+3] = 0x7f // ~2^31 elements
		m := Message{IDs: make([]int32, 0, 2), Data: make([]float32, 0, 8)}
		if err := DecodeInto(&m, bad); err == nil {
			t.Fatalf("length at offset %d: corrupt frame accepted", off)
		}
		if cap(m.IDs) != 2 || cap(m.Counts) != 0 || cap(m.Data) != 8 {
			t.Fatalf("length at offset %d: a section grew before the frame was rejected", off)
		}
	}
}

// TestReleasedBulkMessageIsReused: the transports decode feature and partial
// frames into messages a consumer released, and only those — a small frame of
// another kind never takes a recycled message (and its sections) away.
func TestReleasedBulkMessageIsReused(t *testing.T) {
	// One P: sync.Pool keeps a private slot per P, and the test needs its
	// Put and the transport's Get to meet.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	netw := NewLoopbackNetwork(2)
	defer netw.Close()
	a, b := netw.Transport(0), netw.Transport(1)
	roundTrip := func(m *Message) *Message {
		t.Helper()
		if err := a.Send(1, m); err != nil {
			t.Fatal(err)
		}
		got, err := b.Recv()
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	// sync.Pool may drop a Put (it does so at random under the race detector,
	// and a collection empties it), so reuse is tried a few times; a barrier
	// frame must never get a released message on any of them.
	for attempt := 0; attempt < 20; attempt++ {
		first := roundTrip(&Message{Kind: KindPartials, IDs: []int32{1, 2}, Counts: []int32{1, 1}, Data: make([]float32, 8), Dim: 4})
		data := &first.Data[0]
		first.Release()
		if got := roundTrip(&Message{Kind: KindBarrier}); got == first {
			t.Fatal("a barrier frame was decoded into a released bulk message")
		}
		second := roundTrip(&Message{Kind: KindFeatures, IDs: []int32{7}, Data: []float32{1, 2, 3, 4}, Dim: 4})
		if second.Kind != KindFeatures || second.Counts != nil || second.IDs[0] != 7 || second.Data[3] != 4 {
			t.Fatalf("received message carries the wrong frame: %+v", second)
		}
		if second == first && &second.Data[0] == data {
			return
		}
	}
	t.Fatal("a feature frame was never decoded into the released message's sections")
}
