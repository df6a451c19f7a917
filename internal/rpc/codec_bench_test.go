package rpc

import (
	"fmt"
	"testing"
)

// benchMessage builds a message shaped like a real feature-sync frame:
// ids vertex rows of width dim, the dominant payload of Fig. 15 traffic.
func benchMessage(ids, dim int) *Message {
	m := &Message{
		Kind:   KindFeatures,
		From:   3,
		Layer:  1,
		Epoch:  9,
		IDs:    make([]int32, ids),
		Counts: make([]int32, ids/4),
		Dim:    int32(dim),
		Data:   make([]float32, ids*dim),
	}
	for i := range m.IDs {
		m.IDs[i] = int32(i * 7)
	}
	for i := range m.Counts {
		m.Counts[i] = int32(i)
	}
	for i := range m.Data {
		m.Data[i] = float32(i) * 0.25
	}
	return m
}

func BenchmarkCodecEncode(b *testing.B) {
	for _, sz := range []struct{ ids, dim int }{{256, 16}, {4096, 64}} {
		m := benchMessage(sz.ids, sz.dim)
		b.Run(fmt.Sprintf("ids%d_dim%d", sz.ids, sz.dim), func(b *testing.B) {
			b.SetBytes(m.NumBytes())
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				frame := m.Encode()
				_ = frame
			}
		})
	}
}

func BenchmarkCodecRoundTrip(b *testing.B) {
	for _, sz := range []struct{ ids, dim int }{{256, 16}, {4096, 64}} {
		m := benchMessage(sz.ids, sz.dim)
		b.Run(fmt.Sprintf("ids%d_dim%d", sz.ids, sz.dim), func(b *testing.B) {
			b.SetBytes(m.NumBytes())
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				got, err := Decode(m.Encode())
				if err != nil {
					b.Fatal(err)
				}
				_ = got
			}
		})
	}
}

// BenchmarkCodecDecodeInto is the receive side as the transports run it for
// feature and partial frames: the frame is decoded into a message whose
// sections already have the capacity (a released one), so it costs the three
// section copies and nothing else. BenchmarkCodecDecode is the same frame
// into a fresh message.
func BenchmarkCodecDecodeInto(b *testing.B) {
	for _, sz := range []struct{ ids, dim int }{{256, 16}, {4096, 64}} {
		frame := benchMessage(sz.ids, sz.dim).Encode()
		b.Run(fmt.Sprintf("ids%d_dim%d", sz.ids, sz.dim), func(b *testing.B) {
			b.SetBytes(int64(len(frame)))
			b.ReportAllocs()
			var m Message
			for i := 0; i < b.N; i++ {
				if err := DecodeInto(&m, frame); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkCodecDecode(b *testing.B) {
	for _, sz := range []struct{ ids, dim int }{{256, 16}, {4096, 64}} {
		frame := benchMessage(sz.ids, sz.dim).Encode()
		b.Run(fmt.Sprintf("ids%d_dim%d", sz.ids, sz.dim), func(b *testing.B) {
			b.SetBytes(int64(len(frame)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Decode(frame); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
