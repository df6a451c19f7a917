package nn

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"testing"

	"repro/internal/tensor"
)

// fuzzState is what FuzzLoadState loads into: one parameter of shape [2] and
// an Adam optimizer over it.
func fuzzState() *TrainState {
	params := []*Value{Param(tensor.FromSlice([]float32{0.25, -1.5}, 2))}
	return &TrainState{Params: params, Opt: NewAdam(params, 0.01)}
}

// saveState is SaveState into a fresh buffer, which cannot fail.
func saveState(st *TrainState) []byte {
	var buf bytes.Buffer
	if err := SaveState(&buf, st); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// hugeMomentCheckpoint is a 120-byte v2 file whose optimizer section, first
// in the file, declares one moment pair of shape [2³¹, 2³¹] — 2⁶² elements,
// which the reader once allocated before reading any of them and crashed on
// with "makeslice: len out of range". Its parameter section fits fuzzState.
func hugeMomentCheckpoint() []byte {
	le := binary.LittleEndian
	var opts []byte
	opts = le.AppendUint32(opts, 4)
	opts = append(opts, "adam"...)
	opts = append(opts, make([]byte, 5*4+8)...) // hyperparameters and step
	opts = le.AppendUint32(opts, 1)             // one moment pair
	for range 2 {
		opts = le.AppendUint32(le.AppendUint32(le.AppendUint32(opts, 2), 1<<31), 1<<31)
	}
	var prms []byte
	prms = le.AppendUint32(le.AppendUint32(le.AppendUint32(prms, 1), 1), 2)
	prms = append(prms, make([]byte, 2*4)...)
	file := append([]byte(checkpointMagic), 0, 0, 0, 0, 0, 0, 0, 0)
	le.PutUint32(file[4:], checkpointVersionV2)
	le.PutUint32(file[8:], 2)
	for _, s := range []struct {
		tag  string
		body []byte
	}{{sectionOpt, opts}, {sectionParams, prms}} {
		file = le.AppendUint64(append(file, s.tag...), uint64(len(s.body)))
		file = append(file, s.body...)
	}
	return file
}

// fuzzSeedCheckpoints is the seed corpus, from today's writers: a complete v2
// checkpoint, a parameters-and-epoch one, a v1 file, and damaged ones.
// testdata/fuzz/FuzzLoadState holds the same files as committed bytes, which
// plain `go test` replays.
func fuzzSeedCheckpoints() map[string][]byte {
	st := fuzzState()
	st.Params[0].Grad = tensor.FromSlice([]float32{0.5, -0.125}, 2)
	st.Opt.Step()
	st.Epoch, st.RNG, st.HasRNG = 3, 0x0102030405060708, true
	full := saveState(st)
	var v1 bytes.Buffer
	if err := SaveParams(&v1, st.Params); err != nil {
		panic(err)
	}
	corrupt := func(off int, b byte) []byte {
		f := bytes.Clone(full)
		f[off] = b
		return f
	}
	return map[string][]byte{
		"v2-full":          full,
		"v2-params-epoch":  saveState(&TrainState{Params: st.Params, Epoch: 1}),
		"v1":               v1.Bytes(),
		"empty":            nil,
		"truncated":        full[:len(full)-1],
		"trailing-byte":    append(bytes.Clone(full), 0),
		"bad-version":      corrupt(4, 9),
		"huge-moment":      hugeMomentCheckpoint(),
		"section-size-max": corrupt(12+4+7, 0xff),
	}
}

// TestLoadStateSeedsResaveToThemselves: every seed a writer produced loads and
// re-saves to exactly its own bytes (v1 through SaveParams), and the damaged
// ones — the huge-moment file among them — fail with an error.
func TestLoadStateSeedsResaveToThemselves(t *testing.T) {
	if n := len(hugeMomentCheckpoint()); n != 120 {
		t.Fatalf("the huge-moment file is %d bytes, want 120", n)
	}
	for name, data := range fuzzSeedCheckpoints() {
		st := fuzzState()
		err := LoadState(bytes.NewReader(data), st)
		switch name {
		case "v2-full", "v2-params-epoch", "v1":
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		default:
			if err == nil {
				t.Fatalf("%s: loaded", name)
			}
			continue
		}
		var again []byte
		switch name {
		case "v1":
			var buf bytes.Buffer
			if err := SaveParams(&buf, st.Params); err != nil {
				t.Fatal(err)
			}
			again = buf.Bytes()
		case "v2-params-epoch":
			st.Opt = nil // the file carries no optimizer section
			again = saveState(st)
		default:
			again = saveState(st)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("%s: does not re-save to its own bytes", name)
		}
	}
	var fe *FormatError
	if err := LoadState(bytes.NewReader(hugeMomentCheckpoint()), fuzzState()); !errors.As(err, &fe) {
		t.Fatalf("huge-moment file: %v, want a *FormatError", err)
	}
}

// FuzzLoadState holds the checkpoint reader to its contract on arbitrary
// bytes: never a panic; allocation bounded by the input, whatever sizes the
// file claims; and either an error or a state that re-saves to bytes which
// load back to the same state and re-save to the same bytes again. (A file
// the writers did not produce — sections reordered, padded or missing, v1 —
// re-saves to the canonical v2 form, not to itself; the seeds that are
// canonical must re-save to themselves, TestLoadStateSeedsResaveToThemselves.)
func FuzzLoadState(f *testing.F) {
	for _, data := range fuzzSeedCheckpoints() {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		st := fuzzState()
		err := LoadState(bytes.NewReader(data), st)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20+16*uint64(len(data)) {
			t.Fatalf("a %d-byte file made the reader allocate %d bytes", len(data), grew)
		}
		if err != nil {
			return
		}
		saved := saveState(st)
		again := fuzzState()
		if err := LoadState(bytes.NewReader(saved), again); err != nil {
			t.Fatalf("the re-saved state does not load: %v", err)
		}
		if !bytes.Equal(saveState(again), saved) {
			t.Fatal("the loaded state does not re-save to the same bytes")
		}
	})
}
