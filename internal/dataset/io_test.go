package dataset

import (
	"bytes"
	"encoding/binary"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/graph"
)

func TestDatasetRoundTrip(t *testing.T) {
	orig := IMDBLike(Config{Scale: 0.05, Seed: 5})
	var buf bytes.Buffer
	if err := orig.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != orig.Name || got.NumClasses != orig.NumClasses {
		t.Fatalf("metadata mismatch: %q/%d", got.Name, got.NumClasses)
	}
	if got.Graph.NumVertices() != orig.Graph.NumVertices() || got.Graph.NumEdges() != orig.Graph.NumEdges() {
		t.Fatal("graph dims mismatch")
	}
	for v := 0; v < got.Graph.NumVertices(); v++ {
		if got.Graph.Type(graph.VertexID(v)) != orig.Graph.Type(graph.VertexID(v)) {
			t.Fatal("vertex types mismatch")
		}
		a, b := got.Graph.OutNeighbors(graph.VertexID(v)), orig.Graph.OutNeighbors(graph.VertexID(v))
		if len(a) != len(b) {
			t.Fatalf("degree mismatch at %d", v)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("adjacency mismatch at %d", v)
			}
		}
	}
	if !got.Features.ApproxEqual(orig.Features, 0) {
		t.Fatal("features mismatch")
	}
	for i := range orig.Labels {
		if got.Labels[i] != orig.Labels[i] || got.TrainMask[i] != orig.TrainMask[i] {
			t.Fatal("labels/mask mismatch")
		}
	}
	if len(got.Metapaths) != len(orig.Metapaths) {
		t.Fatal("metapaths mismatch")
	}
	for i, mp := range orig.Metapaths {
		if got.Metapaths[i].Name != mp.Name || len(got.Metapaths[i].Types) != len(mp.Types) {
			t.Fatal("metapath content mismatch")
		}
	}
}

func TestHomogeneousRoundTripKeepsAssignedTypes(t *testing.T) {
	// Reddit-like graphs carry 3 assigned types (for MAGNN); they must
	// survive serialisation.
	orig := RedditLike(Config{Scale: 0.02, Seed: 6})
	var buf bytes.Buffer
	if err := orig.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Graph.NumTypes() != 3 {
		t.Fatalf("NumTypes = %d after round trip", got.Graph.NumTypes())
	}
}

func TestSaveLoadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "reddit.fgds")
	orig := RedditLike(Config{Scale: 0.02, Seed: 7})
	if err := orig.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Graph.NumEdges() != orig.Graph.NumEdges() {
		t.Fatal("edge count mismatch after file round trip")
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("not a dataset"))); err == nil {
		t.Fatal("garbage must be rejected")
	}
	if _, err := Read(bytes.NewReader([]byte("FG"))); err == nil {
		t.Fatal("truncated magic must be rejected")
	}
	// Valid magic, truncated body.
	d := RedditLike(Config{Scale: 0.02, Seed: 8})
	var buf bytes.Buffer
	if err := d.Write(&buf); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()/2]
	if _, err := Read(bytes.NewReader(trunc)); err == nil {
		t.Fatal("truncated dataset must be rejected")
	}
	// Out-of-range values are errors naming what is wrong, not panics: an
	// edge endpoint >= n, and a label outside [0, classes).
	n := d.Graph.NumVertices()
	edge0 := 4 + 4 + 4 + len(d.Name) + 4*4 + 8 // magic, version, name, four counts, edge count
	if d.Graph.NumTypes() > 1 {
		edge0 += n // one type byte per vertex
	}
	labels := edge0 + 8*int(d.Graph.NumEdges()) + 4*n*d.FeatureDim()
	for _, c := range []struct {
		what string
		off  int
		v    uint32
		want string
	}{
		{"edge endpoint", edge0 + 4, uint32(n), "edge 0"},
		{"label", labels + 4*3, uint32(d.NumClasses), "vertex 3"},
		{"negative label", labels + 4*5, ^uint32(0), "vertex 5"},
	} {
		bad := bytes.Clone(buf.Bytes())
		binary.LittleEndian.PutUint32(bad[c.off:], c.v)
		_, err := Read(bytes.NewReader(bad))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s out of range: err %v, want one naming %q", c.what, err, c.want)
		}
	}
}
