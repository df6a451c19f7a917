package rpc

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// fuzzSeedFrames builds the seed corpus from today's encoder: one full and one
// header-only frame per Kind, and the malformed frames the hand-written tests
// reject. testdata/fuzz/FuzzDecode holds the same frames as committed bytes,
// which plain `go test` replays — so a change to the wire format shows up as a
// committed frame that no longer decodes or re-encodes to itself, and
// TestFuzzCorpusIsTheSeedFrames holds the two sets to each other.
func fuzzSeedFrames() [][]byte {
	var frames [][]byte
	for kind := KindFeatures; kind < numKinds; kind++ {
		frames = append(frames,
			(&Message{Kind: kind, From: 1, Layer: 2, Epoch: 3, Dim: 2, Trace: 0x0102030405060708,
				IDs: []int32{4, -5, math.MaxInt32}, Counts: []int32{1, 0},
				Data: []float32{0.5, float32(math.Copysign(0, -1)), float32(math.Inf(1)), float32(math.NaN())}}).Encode(),
			(&Message{Kind: kind}).Encode())
	}
	whole := frames[0]
	corrupt := func(off int, b byte) []byte {
		f := bytes.Clone(whole)
		f[off] = b
		return f
	}
	return append(frames,
		nil,
		whole[:headerBytes-1],         // shorter than a header
		whole[:len(whole)-1],          // truncated payload
		append(bytes.Clone(whole), 0), // trailing byte
		corrupt(0, 0),                 // kind below the range
		corrupt(0, byte(numKinds)),    // kind above it
		corrupt(17+3, 0x7f),           // ~2^31 IDs claimed
		corrupt(21+3, 0xff),           // ~2^32 counts claimed
		corrupt(25+3, 0x7f),           // ~2^31 floats claimed
	)
}

// TestFuzzCorpusIsTheSeedFrames pins testdata/fuzz/FuzzDecode to the
// encoder: unquoted, the committed files are exactly the frames
// fuzzSeedFrames builds — every file a seed and every seed a file.
// FuzzDecode alone cannot tell: a renumbered kind leaves stale files that
// still decode and re-encode (or fail) consistently, they just no longer
// hold the frames their names promise.
func TestFuzzCorpusIsTheSeedFrames(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzDecode")
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	seeds := make(map[string]bool)
	for _, f := range fuzzSeedFrames() {
		seeds[string(f)] = true
	}
	committed := make(map[string]bool)
	for _, f := range files {
		raw, err := os.ReadFile(filepath.Join(dir, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
		if len(lines) != 2 || lines[0] != "go test fuzz v1" ||
			!strings.HasPrefix(lines[1], "[]byte(") || !strings.HasSuffix(lines[1], ")") {
			t.Fatalf("%s: not a corpus file holding one []byte", f.Name())
		}
		frame, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")"))
		if err != nil {
			t.Fatalf("%s: %v", f.Name(), err)
		}
		if !seeds[frame] {
			t.Errorf("%s holds no frame fuzzSeedFrames builds: regenerate the corpus", f.Name())
		}
		committed[frame] = true
	}
	for i, f := range fuzzSeedFrames() {
		if !committed[string(f)] {
			t.Errorf("seed frame %d (%d bytes) has no committed file", i, len(f))
		}
	}
}

// FuzzDecode holds the wire decoder to its contract on arbitrary bytes: the
// frame is rejected with an error, or it decodes to a message that re-encodes
// to exactly the bytes it came from — never a panic, and never a section
// larger than the frame that carried it. The three ways a frame is decoded
// must agree: Decode into a fresh message, DecodeInto over a message that
// still holds a larger frame of every section, and the transports'
// decodeFrame right after a bulk message was released (which may hand that
// message back). A reused message must show nothing of the frame before.
func FuzzDecode(f *testing.F) {
	for _, frame := range fuzzSeedFrames() {
		f.Add(frame)
	}
	previous := (&Message{Kind: KindPartials, From: 9, Layer: 9, Epoch: 9, Dim: 9, Trace: 9,
		IDs: make([]int32, 64), Counts: make([]int32, 64), Data: make([]float32, 256)}).Encode()
	f.Fuzz(func(t *testing.T, data []byte) {
		fresh, err := Decode(data)

		var reused Message
		if perr := DecodeInto(&reused, previous); perr != nil {
			t.Fatal(perr)
		}
		errInto := DecodeInto(&reused, data)

		bulk, perr := decodeFrame(previous)
		if perr != nil {
			t.Fatal(perr)
		}
		bulk.Release()
		framed, errFrame := decodeFrame(data)

		if (err == nil) != (errInto == nil) || (err == nil) != (errFrame == nil) {
			t.Fatalf("the decoders disagree: Decode %v, DecodeInto %v, decodeFrame %v", err, errInto, errFrame)
		}
		if err != nil {
			return
		}
		for name, m := range map[string]*Message{"Decode": fresh, "DecodeInto": &reused, "decodeFrame": framed} {
			if !m.Kind.Valid() {
				t.Fatalf("%s accepted kind %d", name, m.Kind)
			}
			if m.NumBytes() != int64(len(data)) {
				t.Fatalf("%s: a %d-byte frame decoded to a %d-byte message", name, len(data), m.NumBytes())
			}
			if !bytes.Equal(m.Encode(), data) {
				t.Fatalf("%s: the message does not re-encode to its frame", name)
			}
		}
	})
}
