package nn

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"

	"repro/internal/tensor"
)

// This file implements training-state checkpointing — the role of the
// paper's fault-tolerance module (Fig. 12): training state is written to
// durable storage at epoch boundaries and a failed run resumes from the
// last checkpoint.
//
// Two on-disk formats share the magic "FGCK":
//
//	v1 (legacy, parameters only, still loadable read-only):
//	  magic | uint32 version=1 | uint32 numParams
//	  | per parameter: uint32 dims | dims×uint32 shape | count×float32 data
//
//	v2 (sectioned, complete training state):
//	  magic | uint32 version=2 | uint32 numSections
//	  | per section: 4-byte tag | uint64 payloadBytes | payload
//
// v2 sections (all little-endian):
//
//	"PRMS" — the v1 parameter body (count, then dims/shape/data each).
//	"OPTS" — optimizer kind string + hyperparameters + Adam step counter
//	         and both moment tensors (empty moments for SGD).
//	"EPOC" — uint64 count of completed epochs.
//	"RNGS" — uint64 RNG stream state (the layers' draws, e.g. dropout).
//
// A resumed run therefore continues with the same optimizer trajectory,
// epoch numbering (and hence per-epoch sampling seeds) and RNG stream as
// the uninterrupted run it claims to be. v1 files carry none of that: they
// resume weights only.

const (
	checkpointMagic     = "FGCK"
	checkpointVersionV1 = 1
	checkpointVersionV2 = 2
)

// v2 section tags.
const (
	sectionParams = "PRMS"
	sectionOpt    = "OPTS"
	sectionEpoch  = "EPOC"
	sectionRNG    = "RNGS"
)

// FormatError reports a structurally invalid checkpoint: bad magic,
// unsupported version, a truncated body, an unknown section, or trailing
// bytes after the last expected byte (a concatenated or corrupt file).
type FormatError struct {
	Reason string
}

func (e *FormatError) Error() string { return "nn: invalid checkpoint: " + e.Reason }

// MismatchError reports checkpoint state that is incompatible with the
// model or optimizer it is being restored into: wrong parameter count or
// shape, wrong optimizer kind, or moment tensors that do not line up.
type MismatchError struct {
	What string // which quantity disagrees, e.g. "parameter count"
	Want string
	Got  string
}

func (e *MismatchError) Error() string {
	return fmt.Sprintf("nn: checkpoint mismatch: %s is %s, want %s", e.What, e.Got, e.Want)
}

// TrainState bundles everything checkpoint format v2 carries. Params is
// required on both save and load; the other fields are optional.
type TrainState struct {
	// Params are the model parameters, restored in place on load.
	Params []*Value
	// Opt, when non-nil and a StatefulOptimizer, has its complete state
	// saved/restored (Adam's t/m/v; SGD's hyperparameters). Loading a file
	// without an optimizer section (v1, or params-only v2) leaves Opt
	// untouched.
	Opt Optimizer
	// Epoch is the number of completed epochs at the snapshot; a resumed
	// run continues epoch numbering (and per-epoch seeds) from here.
	Epoch int
	// RNG is the training RNG stream state; HasRNG records whether the
	// file carried one (v1 files do not).
	RNG    uint64
	HasRNG bool
}

// --- shared little-endian helpers ---

func writeU32(w io.Writer, v uint32) error { return binary.Write(w, binary.LittleEndian, v) }
func writeU64(w io.Writer, v uint64) error { return binary.Write(w, binary.LittleEndian, v) }

func readU32(r io.Reader) (uint32, error) {
	var v uint32
	err := binary.Read(r, binary.LittleEndian, &v)
	return v, err
}

func readU64(r io.Reader) (uint64, error) {
	var v uint64
	err := binary.Read(r, binary.LittleEndian, &v)
	return v, err
}

// writeTensor emits dims | shape | float32 data.
func writeTensor(w io.Writer, t *tensor.Tensor) error {
	shape := t.Shape()
	if err := writeU32(w, uint32(len(shape))); err != nil {
		return err
	}
	for _, d := range shape {
		if err := writeU32(w, uint32(d)); err != nil {
			return err
		}
	}
	for _, v := range t.Data() {
		if err := writeU32(w, math.Float32bits(v)); err != nil {
			return err
		}
	}
	return nil
}

// section is one v2 section's payload, read no further than its extent.
type section struct {
	*bufio.Reader
	rest *io.LimitedReader
}

func newSection(r io.Reader, size uint64) *section {
	rest := &io.LimitedReader{R: r, N: int64(size)}
	return &section{bufio.NewReader(rest), rest}
}

// left is how many bytes of the section's declared extent are still unread.
func (s *section) left() int64 { return s.rest.N + int64(s.Buffered()) }

// readTensor reads a dims | shape | data record into a fresh tensor. A shape
// whose element count overflows, or whose data cannot fit in what is left of
// the section, is a *FormatError; the data is read in chunks, so allocation
// follows the bytes actually read, not the shape's claim.
func readTensor(r *section) (*tensor.Tensor, error) {
	dims, err := readU32(r)
	if err != nil {
		return nil, err
	}
	if dims == 0 || dims > 8 {
		return nil, &FormatError{Reason: fmt.Sprintf("tensor with %d dims", dims)}
	}
	shape := make([]int, dims)
	n := 1
	for i := range shape {
		d, err := readU32(r)
		if err != nil {
			return nil, err
		}
		shape[i] = int(d)
		if d != 0 && n > math.MaxInt/int(d) {
			return nil, &FormatError{Reason: fmt.Sprintf("tensor shape %v overflows", shape[:i+1])}
		}
		n *= int(d)
	}
	if int64(n) > r.left()/4 {
		return nil, &FormatError{Reason: fmt.Sprintf("tensor of shape %v in %d bytes", shape, r.left())}
	}
	data := make([]float32, 0, min(n, 1<<16))
	for len(data) < n {
		bits, err := readU32(r)
		if err != nil {
			return nil, err
		}
		data = append(data, math.Float32frombits(bits))
	}
	return tensor.FromSlice(data, shape...), nil
}

// writeParamsBody emits the shared parameter body (v1 body ≡ PRMS payload).
func writeParamsBody(w io.Writer, params []*Value) error {
	if err := writeU32(w, uint32(len(params))); err != nil {
		return err
	}
	for _, p := range params {
		if err := writeTensor(w, p.Data); err != nil {
			return err
		}
	}
	return nil
}

// readParamsBody restores the shared parameter body into params, enforcing
// count and shape agreement with typed errors.
func readParamsBody(r *section, params []*Value) error {
	count, err := readU32(r)
	if err != nil {
		return err
	}
	if int(count) != len(params) {
		return &MismatchError{What: "parameter count",
			Want: fmt.Sprintf("%d", len(params)), Got: fmt.Sprintf("%d", count)}
	}
	for i, p := range params {
		t, err := readTensor(r)
		if err != nil {
			return err
		}
		if want := p.Data.Shape(); !shapeEqual(t.Shape(), want) {
			return &MismatchError{What: fmt.Sprintf("parameter %d shape", i),
				Want: fmt.Sprint(want), Got: fmt.Sprint(t.Shape())}
		}
		copy(p.Data.Data(), t.Data())
	}
	return nil
}

// writeOptBody emits the OPTS payload from an optimizer snapshot.
func writeOptBody(w io.Writer, st *OptState) error {
	if err := writeU32(w, uint32(len(st.Kind))); err != nil {
		return err
	}
	if _, err := io.WriteString(w, st.Kind); err != nil {
		return err
	}
	for _, f := range []float32{st.LR, st.WeightDecay, st.Beta1, st.Beta2, st.Eps} {
		if err := writeU32(w, math.Float32bits(f)); err != nil {
			return err
		}
	}
	if err := writeU64(w, uint64(st.Step)); err != nil {
		return err
	}
	if len(st.M) != len(st.V) {
		return &MismatchError{What: "moment list lengths",
			Want: fmt.Sprintf("%d", len(st.M)), Got: fmt.Sprintf("%d", len(st.V))}
	}
	if err := writeU32(w, uint32(len(st.M))); err != nil {
		return err
	}
	for i := range st.M {
		if err := writeTensor(w, st.M[i]); err != nil {
			return err
		}
		if err := writeTensor(w, st.V[i]); err != nil {
			return err
		}
	}
	return nil
}

// readOptBody parses an OPTS payload back into an optimizer snapshot.
func readOptBody(r *section) (*OptState, error) {
	kindLen, err := readU32(r)
	if err != nil {
		return nil, err
	}
	if kindLen > 64 {
		return nil, &FormatError{Reason: fmt.Sprintf("optimizer kind of %d bytes", kindLen)}
	}
	kind := make([]byte, kindLen)
	if _, err := io.ReadFull(r, kind); err != nil {
		return nil, err
	}
	st := &OptState{Kind: string(kind)}
	for _, dst := range []*float32{&st.LR, &st.WeightDecay, &st.Beta1, &st.Beta2, &st.Eps} {
		bits, err := readU32(r)
		if err != nil {
			return nil, err
		}
		*dst = math.Float32frombits(bits)
	}
	step, err := readU64(r)
	if err != nil {
		return nil, err
	}
	st.Step = int64(step)
	nMoments, err := readU32(r)
	if err != nil {
		return nil, err
	}
	// A moment pair is two records of at least one dimension: 16 bytes.
	if int64(nMoments) > r.left()/16 {
		return nil, &FormatError{Reason: fmt.Sprintf("%d moment pairs in %d bytes", nMoments, r.left())}
	}
	for i := 0; i < int(nMoments); i++ {
		m, err := readTensor(r)
		if err != nil {
			return nil, err
		}
		v, err := readTensor(r)
		if err != nil {
			return nil, err
		}
		st.M = append(st.M, m)
		st.V = append(st.V, v)
	}
	return st, nil
}

// rejectTrailing fails with a typed *FormatError unless r is exactly at
// EOF. Checkpoints are fixed-extent files: trailing bytes mean truncated
// writes that were concatenated, a garbage tail, or a reader bug — all of
// which must fail loudly rather than load "successfully".
func rejectTrailing(r *bufio.Reader) error {
	if _, err := r.ReadByte(); err != io.EOF {
		return &FormatError{Reason: "trailing bytes after checkpoint body"}
	}
	return nil
}

// SaveParams writes the parameters' tensors to w in the legacy v1 format
// (parameters only). New code that wants resumable training should use
// SaveState, which writes the sectioned v2 format.
func SaveParams(w io.Writer, params []*Value) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(checkpointMagic); err != nil {
		return err
	}
	if err := writeU32(bw, checkpointVersionV1); err != nil {
		return err
	}
	if err := writeParamsBody(bw, params); err != nil {
		return err
	}
	return bw.Flush()
}

// LoadParams reads a checkpoint from r into params, which must have the
// same count and shapes as when saved. Both formats are accepted: v1 files
// are read whole; from v2 files only the parameter section is restored and
// the other sections are skipped. Bytes after the checkpoint body are a
// typed *FormatError — a concatenated or garbage file must not half-load.
func LoadParams(r io.Reader, params []*Value) error {
	return loadCheckpoint(r, &TrainState{Params: params}, true)
}

// SaveState writes the complete training state to w in checkpoint format
// v2: parameters, the optimizer's kind/hyperparameters/state (when st.Opt
// is a StatefulOptimizer), the completed-epoch counter and the RNG stream.
func SaveState(w io.Writer, st *TrainState) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(checkpointMagic); err != nil {
		return err
	}
	if err := writeU32(bw, checkpointVersionV2); err != nil {
		return err
	}
	type section struct {
		tag  string
		body func(io.Writer) error
	}
	sections := []section{{sectionParams, func(w io.Writer) error { return writeParamsBody(w, st.Params) }}}
	if so, ok := st.Opt.(StatefulOptimizer); ok && st.Opt != nil {
		os := so.StateSave()
		sections = append(sections, section{sectionOpt, func(w io.Writer) error { return writeOptBody(w, os) }})
	}
	sections = append(sections, section{sectionEpoch, func(w io.Writer) error { return writeU64(w, uint64(st.Epoch)) }})
	if st.HasRNG {
		sections = append(sections, section{sectionRNG, func(w io.Writer) error { return writeU64(w, st.RNG) }})
	}
	if err := writeU32(bw, uint32(len(sections))); err != nil {
		return err
	}
	// Sections are length-prefixed so readers can skip what they do not
	// understand (LoadParams skips everything but PRMS); bodies are staged
	// through a counting buffer to learn their length.
	for _, s := range sections {
		var buf countingBuffer
		if err := s.body(&buf); err != nil {
			return err
		}
		if _, err := bw.WriteString(s.tag); err != nil {
			return err
		}
		if err := writeU64(bw, uint64(len(buf.b))); err != nil {
			return err
		}
		if _, err := bw.Write(buf.b); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// countingBuffer is a minimal in-memory staging writer for section bodies.
type countingBuffer struct{ b []byte }

func (c *countingBuffer) Write(p []byte) (int, error) {
	c.b = append(c.b, p...)
	return len(p), nil
}

// LoadState reads a checkpoint from r, restoring parameters in place,
// restoring st.Opt's state when the file carries an optimizer section, and
// filling st.Epoch / st.RNG / st.HasRNG. v1 files load read-only as
// weights-only snapshots: st.Epoch keeps the value the caller put there and
// the optimizer is untouched.
// Kind and shape disagreements are typed *MismatchError; structural damage
// (bad magic, truncation, trailing bytes) is a typed *FormatError.
func LoadState(r io.Reader, st *TrainState) error {
	return loadCheckpoint(r, st, false)
}

// loadCheckpoint is the shared v1/v2 reader. paramsOnly skips the
// optimizer/epoch/RNG sections without touching st (the LoadParams path).
func loadCheckpoint(r io.Reader, st *TrainState, paramsOnly bool) error {
	br := bufio.NewReader(r)
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return &FormatError{Reason: fmt.Sprintf("reading magic: %v", err)}
	}
	if string(magic) != checkpointMagic {
		return &FormatError{Reason: fmt.Sprintf("bad magic %q", magic)}
	}
	version, err := readU32(br)
	if err != nil {
		return &FormatError{Reason: fmt.Sprintf("reading version: %v", err)}
	}
	switch version {
	case checkpointVersionV1:
		body := newSection(br, math.MaxInt64)
		if err := readParamsBody(body, st.Params); err != nil {
			return err
		}
		return rejectTrailing(body.Reader)
	case checkpointVersionV2:
		// fall through below
	default:
		return &FormatError{Reason: fmt.Sprintf("unsupported version %d", version)}
	}

	nSections, err := readU32(br)
	if err != nil {
		return &FormatError{Reason: fmt.Sprintf("reading section count: %v", err)}
	}
	if nSections > 64 {
		return &FormatError{Reason: fmt.Sprintf("%d sections", nSections)}
	}
	sawParams := false
	tag := make([]byte, 4)
	for i := 0; i < int(nSections); i++ {
		if _, err := io.ReadFull(br, tag); err != nil {
			return &FormatError{Reason: fmt.Sprintf("reading section tag: %v", err)}
		}
		size, err := readU64(br)
		if err != nil {
			return &FormatError{Reason: fmt.Sprintf("reading section size: %v", err)}
		}
		// Bound the section to its declared extent so a short body is a
		// loud truncation error and a long one surfaces as trailing bytes.
		body := newSection(br, size)
		switch string(tag) {
		case sectionParams:
			sawParams = true
			if err := readParamsBody(body, st.Params); err != nil {
				return err
			}
		case sectionOpt:
			if paramsOnly || st.Opt == nil {
				break // skipped below by draining the remainder
			}
			os, err := readOptBody(body)
			if err != nil {
				return err
			}
			so, ok := st.Opt.(StatefulOptimizer)
			if !ok {
				return &MismatchError{What: "optimizer", Want: "a StatefulOptimizer",
					Got: fmt.Sprintf("%T", st.Opt)}
			}
			if err := so.StateLoad(os); err != nil {
				return err
			}
		case sectionEpoch:
			epoch, err := readU64(body)
			if err != nil {
				return err
			}
			if !paramsOnly {
				st.Epoch = int(epoch)
			}
		case sectionRNG:
			state, err := readU64(body)
			if err != nil {
				return err
			}
			if !paramsOnly {
				st.RNG = state
				st.HasRNG = true
			}
		default:
			return &FormatError{Reason: fmt.Sprintf("unknown section %q", tag)}
		}
		// Drain whatever the section reader did not consume (skipped
		// sections, or forward-compatible padding within a known one); a
		// file that ends inside the section is truncated.
		if _, err := io.Copy(io.Discard, body); err != nil {
			return &FormatError{Reason: fmt.Sprintf("draining section %q: %v", tag, err)}
		}
		if body.rest.N > 0 {
			return &FormatError{Reason: fmt.Sprintf("section %q truncated %d bytes short", tag, body.rest.N)}
		}
	}
	if !sawParams {
		return &FormatError{Reason: "no parameter section"}
	}
	return rejectTrailing(br)
}

// saveFileAtomic writes via a temp file in path's directory, fsyncs the
// file and the directory, then renames into place. A crash at any point
// leaves either the old checkpoint or the new one — never a truncated
// file: the rename is only reachable after the data is durable, and the
// directory fsync makes the rename itself durable.
func saveFileAtomic(path string, write func(io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	// Persist the rename: fsync the parent directory (best-effort on
	// filesystems that do not support directory sync).
	if dir, err := os.Open(filepath.Dir(path)); err == nil {
		_ = dir.Sync()
		dir.Close()
	}
	return nil
}

// LoadCheckpoint reads model parameters from path (either format; v2 files
// contribute only their parameter section).
func LoadCheckpoint(path string, params []*Value) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return LoadParams(f, params)
}

// SaveStateFile writes a complete v2 training-state checkpoint to path
// atomically and durably.
func SaveStateFile(path string, st *TrainState) error {
	return saveFileAtomic(path, func(w io.Writer) error { return SaveState(w, st) })
}

// LoadStateFile restores a training-state checkpoint from path (see
// LoadState for v1/v2 semantics).
func LoadStateFile(path string, st *TrainState) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return LoadState(f, st)
}

// ParamsEqual reports whether two parameter lists hold identical tensors,
// used by resume tests.
func ParamsEqual(a, b []*Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Data.ApproxEqual(b[i].Data, 0) {
			return false
		}
	}
	return true
}
