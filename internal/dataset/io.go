package dataset

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"

	"repro/internal/graph"
	"repro/internal/tensor"
)

// This file implements dataset serialisation — the role of the paper's
// storage-system tier (Fig. 12): graphs and vertex features live in durable
// storage and are loaded by the NN framework, graph engine and load
// balancer. The format is a single self-describing binary file:
//
//	magic "FGDS" | u32 version
//	| name (u32 len + bytes)
//	| u32 numVertices | u32 numClasses | u32 featureDim | u32 numTypes
//	| numVertices × u8 vertex types (only when numTypes > 1)
//	| u64 numEdges | numEdges × (u32 src, u32 dst)
//	| numVertices×featureDim × f32 features
//	| numVertices × u32 labels
//	| numVertices × u8 train mask
//	| u32 numMetapaths | per metapath: name + u32 len + len × u8 types
//
// Everything little-endian.

const (
	datasetMagic   = "FGDS"
	datasetVersion = 1
)

type binWriter struct {
	w   *bufio.Writer
	err error
}

func (b *binWriter) u32(v uint32) {
	if b.err == nil {
		b.err = binary.Write(b.w, binary.LittleEndian, v)
	}
}
func (b *binWriter) u64(v uint64) {
	if b.err == nil {
		b.err = binary.Write(b.w, binary.LittleEndian, v)
	}
}
func (b *binWriter) u8(v uint8) {
	if b.err == nil {
		b.err = b.w.WriteByte(v)
	}
}
func (b *binWriter) str(s string) {
	b.u32(uint32(len(s)))
	if b.err == nil {
		_, b.err = b.w.WriteString(s)
	}
}

type binReader struct {
	r   *bufio.Reader
	err error
}

func (b *binReader) u32() uint32 {
	var v uint32
	if b.err == nil {
		b.err = binary.Read(b.r, binary.LittleEndian, &v)
	}
	return v
}
func (b *binReader) u64() uint64 {
	var v uint64
	if b.err == nil {
		b.err = binary.Read(b.r, binary.LittleEndian, &v)
	}
	return v
}
func (b *binReader) u8() uint8 {
	if b.err != nil {
		return 0
	}
	v, err := b.r.ReadByte()
	b.err = err
	return v
}
func (b *binReader) str() string {
	n := b.u32()
	if b.err != nil || n > 1<<20 {
		if b.err == nil {
			b.err = fmt.Errorf("dataset: unreasonable string length %d", n)
		}
		return ""
	}
	buf := make([]byte, n)
	if b.err == nil {
		_, b.err = io.ReadFull(b.r, buf)
	}
	return string(buf)
}

// Write serialises the dataset to w.
func (d *Dataset) Write(w io.Writer) error {
	bw := &binWriter{w: bufio.NewWriterSize(w, 1<<16)}
	bw.w.WriteString(datasetMagic)
	bw.u32(datasetVersion)
	bw.str(d.Name)
	g := d.Graph
	n := g.NumVertices()
	bw.u32(uint32(n))
	bw.u32(uint32(d.NumClasses))
	bw.u32(uint32(d.FeatureDim()))
	bw.u32(uint32(g.NumTypes()))
	if g.NumTypes() > 1 {
		for v := 0; v < n; v++ {
			bw.u8(g.Type(graph.VertexID(v)))
		}
	}
	bw.u64(uint64(g.NumEdges()))
	for v := 0; v < n; v++ {
		for _, u := range g.OutNeighbors(graph.VertexID(v)) {
			bw.u32(uint32(v))
			bw.u32(uint32(u))
		}
	}
	for _, f := range d.Features.Data() {
		bw.u32(math.Float32bits(f))
	}
	for _, l := range d.Labels {
		bw.u32(uint32(l))
	}
	for _, m := range d.TrainMask {
		if m {
			bw.u8(1)
		} else {
			bw.u8(0)
		}
	}
	bw.u32(uint32(len(d.Metapaths)))
	for _, mp := range d.Metapaths {
		bw.str(mp.Name)
		bw.u32(uint32(len(mp.Types)))
		for _, t := range mp.Types {
			bw.u8(t)
		}
	}
	if bw.err != nil {
		return bw.err
	}
	return bw.w.Flush()
}

// Read deserialises a dataset written by Write.
func Read(r io.Reader) (*Dataset, error) {
	br := &binReader{r: bufio.NewReaderSize(r, 1<<16)}
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br.r, magic); err != nil {
		return nil, fmt.Errorf("dataset: reading magic: %w", err)
	}
	if string(magic) != datasetMagic {
		return nil, fmt.Errorf("dataset: bad magic %q", magic)
	}
	if v := br.u32(); br.err == nil && v != datasetVersion {
		return nil, fmt.Errorf("dataset: unsupported version %d", v)
	}
	name := br.str()
	n := int(br.u32())
	classes := int(br.u32())
	featDim := int(br.u32())
	numTypes := int(br.u32())
	if br.err != nil {
		return nil, br.err
	}
	var types []uint8
	if numTypes > 1 {
		types = make([]uint8, n)
		for v := range types {
			types[v] = br.u8()
		}
	}
	b := graph.NewBuilder(n)
	if types != nil {
		b.SetTypes(types, numTypes)
	}
	edges := br.u64()
	for e := uint64(0); e < edges && br.err == nil; e++ {
		src, dst := br.u32(), br.u32()
		if br.err != nil {
			break
		}
		if uint64(src) >= uint64(n) || uint64(dst) >= uint64(n) {
			return nil, fmt.Errorf("dataset: edge %d (%d -> %d) names a vertex outside [0, %d)", e, src, dst, n)
		}
		b.AddEdge(graph.VertexID(src), graph.VertexID(dst))
	}
	feats := tensor.New(n, featDim)
	fd := feats.Data()
	for i := range fd {
		fd[i] = math.Float32frombits(br.u32())
	}
	labels := make([]int32, n)
	for i := range labels {
		labels[i] = int32(br.u32())
	}
	mask := make([]bool, n)
	for i := range mask {
		mask[i] = br.u8() == 1
	}
	numMP := int(br.u32())
	var metapaths []graph.Metapath
	for i := 0; i < numMP && br.err == nil; i++ {
		mpName := br.str()
		l := int(br.u32())
		mp := graph.Metapath{Name: mpName, Types: make([]uint8, l)}
		for j := range mp.Types {
			mp.Types[j] = br.u8()
		}
		metapaths = append(metapaths, mp)
	}
	if br.err != nil {
		return nil, br.err
	}
	// The loss indexes a row by its label, inside pool workers: check here.
	for v, l := range labels {
		if l < 0 || int(l) >= classes {
			return nil, fmt.Errorf("dataset: vertex %d has label %d outside [0, %d)", v, l, classes)
		}
	}
	return &Dataset{
		Name:       name,
		Graph:      b.Build(),
		Features:   feats,
		Labels:     labels,
		TrainMask:  mask,
		NumClasses: classes,
		Metapaths:  metapaths,
	}, nil
}

// Save writes the dataset to path atomically.
func (d *Dataset) Save(path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := d.Write(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// Load reads a dataset from path.
func Load(path string) (*Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}
