package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"

	"repro/internal/metrics"
)

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	r := tr.Begin(0, 0, 0, CatStage, "noop")
	r.End()
	tr.Record(Span{Name: "x"})
	if tr.Len() != 0 || tr.Dropped() != 0 || tr.Spans() != nil || tr.Now() != 0 {
		t.Fatal("nil tracer retained state")
	}
	tr.Reset()
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Fatalf("nil tracer wrote %q", buf.String())
	}
}

func TestRecordAndSpans(t *testing.T) {
	tr := New(8)
	for i := 0; i < 5; i++ {
		tr.Record(Span{Name: fmt.Sprintf("s%d", i), Cat: CatStage, Rank: int32(i % 2), Start: int64(i * 100), Dur: 50})
	}
	if tr.Len() != 5 || tr.Dropped() != 0 {
		t.Fatalf("Len=%d Dropped=%d", tr.Len(), tr.Dropped())
	}
	spans := tr.Spans()
	if len(spans) != 5 {
		t.Fatalf("got %d spans", len(spans))
	}
	for i := 1; i < len(spans); i++ {
		if spans[i].Start < spans[i-1].Start {
			t.Fatal("spans not sorted by start")
		}
	}
}

func TestRingWraparound(t *testing.T) {
	tr := New(4) // capacity rounds to 4
	for i := 0; i < 10; i++ {
		tr.Record(Span{Name: "s", Start: int64(i)})
	}
	if tr.Len() != 4 {
		t.Fatalf("Len = %d, want 4", tr.Len())
	}
	if tr.Dropped() != 6 {
		t.Fatalf("Dropped = %d, want 6", tr.Dropped())
	}
	spans := tr.Spans()
	if len(spans) != 4 {
		t.Fatalf("got %d spans", len(spans))
	}
	// Only the newest four survive.
	for _, s := range spans {
		if s.Start < 6 {
			t.Fatalf("overwritten span %d survived", s.Start)
		}
	}
	tr.Reset()
	if tr.Len() != 0 || len(tr.Spans()) != 0 {
		t.Fatal("reset did not clear")
	}
}

func TestBeginEndMeasures(t *testing.T) {
	tr := New(16)
	r := tr.Begin(3, 7, 1, CatFence, "wait")
	spin := 0
	for i := 0; i < 1000; i++ {
		spin += i
	}
	_ = spin
	r.End()
	spans := tr.Spans()
	if len(spans) != 1 {
		t.Fatalf("got %d spans", len(spans))
	}
	s := spans[0]
	if s.Rank != 3 || s.Epoch != 7 || s.Phase != 1 || s.Cat != CatFence || s.Name != "wait" {
		t.Fatalf("span fields wrong: %+v", s)
	}
	if s.Dur < 0 {
		t.Fatalf("negative duration %d", s.Dur)
	}
}

func TestConcurrentRecord(t *testing.T) {
	tr := New(1024)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				r := tr.Begin(int32(g), 0, int32(i), CatStage, "work")
				r.End()
			}
		}(g)
	}
	wg.Wait()
	if tr.Len() != 1024 || tr.Dropped() != 8*200-1024 {
		t.Fatalf("Len=%d Dropped=%d", tr.Len(), tr.Dropped())
	}
}

func TestWriteJSONL(t *testing.T) {
	tr := New(16)
	tr.Record(Span{Name: "a", Cat: CatEpoch, Rank: 0, Start: 1, Dur: 2})
	tr.Record(Span{Name: "b", Cat: CatStage, Rank: 1, Start: 3, Dur: 4})
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	var lines int
	for sc.Scan() {
		var s Span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("line %d: %v", lines, err)
		}
		lines++
	}
	if lines != 2 {
		t.Fatalf("got %d JSONL lines", lines)
	}
}

// chromeFile mirrors the trace-event JSON shape for validation.
type chromeFile struct {
	TraceEvents []struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int64          `json:"pid"`
		Tid  int64          `json:"tid"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
}

func TestWriteChromeTrace(t *testing.T) {
	tr := New(16)
	tr.Record(Span{Name: "epoch", Cat: CatEpoch, Rank: 0, Epoch: 2, Start: 1000, Dur: 9000})
	tr.Record(Span{Name: "agg", Cat: CatStage, Rank: 1, Epoch: 2, Phase: 1, Start: 2000, Dur: 500})
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var cf chromeFile
	if err := json.Unmarshal(buf.Bytes(), &cf); err != nil {
		t.Fatalf("chrome trace does not parse: %v", err)
	}
	var complete, meta int
	pids := map[int64]bool{}
	for _, ev := range cf.TraceEvents {
		switch ev.Ph {
		case "X":
			complete++
			pids[ev.Pid] = true
		case "M":
			meta++
		default:
			t.Fatalf("unexpected phase %q", ev.Ph)
		}
	}
	if complete != 2 {
		t.Fatalf("got %d complete events", complete)
	}
	if !pids[0] || !pids[1] {
		t.Fatalf("missing rank pids: %v", pids)
	}
	if meta == 0 {
		t.Fatal("no process/thread metadata emitted")
	}
	// Microsecond conversion: 9000 ns span -> 9 us.
	for _, ev := range cf.TraceEvents {
		if ev.Ph == "X" && ev.Name == "epoch" && ev.Dur != 9 {
			t.Fatalf("epoch dur = %v us, want 9", ev.Dur)
		}
	}
}

func TestDebugEndpoints(t *testing.T) {
	tr := New(16)
	tr.Record(Span{Name: "a", Cat: CatStage, Rank: 0, Start: 1, Dur: 2})
	reg := metrics.NewRegistry()
	reg.Counter("test.count").Add(5)
	reg.Histogram("test.lat_ns").Observe(1234)

	addr, shutdown, err := ServeMux("127.0.0.1:0", DebugMux(tr, reg))
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()

	get := func(path string) string {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	if body := get("/metrics"); !strings.Contains(body, "test.count") {
		t.Fatalf("/metrics missing counter: %q", body)
	}
	var js map[string]any
	if err := json.Unmarshal([]byte(get("/metrics?format=json")), &js); err != nil {
		t.Fatalf("/metrics json: %v", err)
	}
	if body := get("/trace"); !strings.Contains(body, `"name":"a"`) {
		t.Fatalf("/trace missing span: %q", body)
	}
	var cf chromeFile
	if err := json.Unmarshal([]byte(get("/trace/chrome")), &cf); err != nil {
		t.Fatalf("/trace/chrome: %v", err)
	}
	if body := get("/debug/vars"); !strings.Contains(body, "flexgraph_metrics") {
		t.Fatal("/debug/vars missing flexgraph_metrics")
	}
	get("/debug/pprof/cmdline")
}
