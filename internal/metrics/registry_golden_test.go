package metrics

import (
	"bytes"
	"math"
	"os"
	"testing"
)

// goldenRegistry is a fixed registry covering what the dumps format
// differently: counters and gauges of every sign and size, an empty
// histogram, one holding only the <= 0 bucket, one spread over many buckets
// up to the top one, and one carrying an exemplar.
func goldenRegistry() *Registry {
	r := NewRegistry()
	r.Counter("collective.ops.rank1").Add(12345678901)
	r.Counter("a.count").Add(3)
	r.Counter("z.untouched")
	r.Gauge("cluster.epoch_loss").Set(1.2345)
	r.Gauge("neg").Set(-0.5)
	r.Gauge("zero")
	r.Gauge("big").Set(1e21)
	r.Gauge("tiny").Set(3e-9)
	r.Histogram("empty")
	u := r.Histogram("underflow_only")
	u.Observe(0)
	u.Observe(-7)
	l := r.Histogram("lat_ns")
	for _, v := range []int64{0, -3, 1, 2, 3, 7, 100, 1000, 1000, 65535, 1 << 40, math.MaxInt64 / 4} {
		l.Observe(v)
	}
	e := r.Histogram("serve_queue_wait_ns")
	e.ObserveExemplar(500, 0xabc)
	e.ObserveExemplar(900, 0xdef)
	e.ObserveExemplar(20, 0x123)
	e.Observe(10)
	return r
}

// TestRegistryDumpsAreGolden pins WriteText and WriteJSON byte for byte to
// testdata/registry.{txt,json}, the output of the dumps before they were
// derived from Snapshot; a nil registry dumps nothing as text and three
// empty maps as JSON.
func TestRegistryDumpsAreGolden(t *testing.T) {
	for _, c := range []struct {
		file  string
		write func(*Registry, *bytes.Buffer) error
	}{
		{"testdata/registry.txt", func(r *Registry, b *bytes.Buffer) error { return r.WriteText(b) }},
		{"testdata/registry.json", func(r *Registry, b *bytes.Buffer) error { return r.WriteJSON(b) }},
	} {
		want, err := os.ReadFile(c.file)
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := c.write(goldenRegistry(), &got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s differs:\n got %q\nwant %q", c.file, got.String(), want)
		}
	}
	var text, js bytes.Buffer
	var nilReg *Registry
	if err := nilReg.WriteText(&text); err != nil || text.Len() != 0 {
		t.Errorf("nil registry text dump: %q, %v", text.String(), err)
	}
	if err := nilReg.WriteJSON(&js); err != nil || js.String() != "{\"counters\":{},\"gauges\":{},\"histograms\":{}}\n" {
		t.Errorf("nil registry JSON dump: %q, %v", js.String(), err)
	}
}
