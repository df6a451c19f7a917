package trace

import (
	"fmt"
	"io"
	"net/http"
	"runtime"
	"testing"
	"time"

	"repro/internal/metrics"
)

// TestServeDebugShutdownNoGoroutineLeak serves one real scrape and then
// asserts shutdown returns the process to its goroutine baseline — the
// telemetry walkthrough starts/stops a debug server per worker, so a
// leaked accept or handler goroutine would accumulate across runs.
func TestServeDebugShutdownNoGoroutineLeak(t *testing.T) {
	base := runtime.NumGoroutine()

	tr := New(64)
	tr.Begin(0, 0, 0, CatEpoch, "epoch").End()
	reg := metrics.NewRegistry()
	reg.Counter("x").Add(1)
	addr, shutdown, err := ServeMux("127.0.0.1:0", DebugMux(tr, reg))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(fmt.Sprintf("http://%s/metrics", addr))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(body) == 0 {
		t.Fatalf("scrape: status %d, %d bytes", resp.StatusCode, len(body))
	}
	// The dropped-span gauges materialize at scrape time.
	if got := reg.Gauge("trace.span_capacity").Load(); got != 64 {
		t.Fatalf("trace.span_capacity = %v, want 64", got)
	}
	if err := shutdown(); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= base+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutine leak after shutdown: %d running, baseline %d\n%s",
				n, base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
