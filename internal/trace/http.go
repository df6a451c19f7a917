package trace

import (
	"bytes"
	"encoding/json"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"

	"repro/internal/metrics"
)

// publishOnce guards the process-global expvar name: expvar.Publish panics
// on duplicates, and tests (or a binary hosting several workers) may build
// more than one debug mux.
var publishOnce sync.Once

// DebugMux returns the live-introspection HTTP handler served at
// -debug-addr:
//
//	/metrics        registry in text form (?format=json for JSON)
//	/trace          retained spans as JSONL
//	/trace/chrome   retained spans as Chrome trace-event JSON (Perfetto)
//	/debug/vars     expvar (Go runtime memstats + the flexgraph registry)
//	/debug/pprof/   CPU, heap, goroutine, block and mutex profiles
//
// Either argument may be nil; the corresponding endpoints serve empty
// payloads rather than 404s, so dashboards keep working when one half of
// the observability layer is off.
func DebugMux(t *Tracer, reg *metrics.Registry) *http.ServeMux {
	publishOnce.Do(func() {
		expvar.Publish("flexgraph_metrics", expvar.Func(func() any {
			var buf bytes.Buffer
			_ = reg.WriteJSON(&buf)
			return json.RawMessage(bytes.TrimSpace(buf.Bytes()))
		}))
	})
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		// Surface silent span loss at scrape time: a ring that wrapped shows
		// up as a nonzero trace.spans_dropped next to its capacity, instead
		// of being visible only in the JSONL export.
		if t.Enabled() && reg != nil {
			reg.Gauge("trace.spans_dropped").Set(float64(t.Dropped()))
			reg.Gauge("trace.span_capacity").Set(float64(t.Cap()))
			reg.Gauge("trace.spans_retained").Set(float64(t.Len()))
		}
		if r.URL.Query().Get("format") == "json" {
			w.Header().Set("Content-Type", "application/json")
			_ = reg.WriteJSON(w)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_ = reg.WriteText(w)
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		_ = t.WriteJSONL(w)
	})
	mux.HandleFunc("/trace/chrome", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = t.WriteChromeTrace(w)
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// ServeMux starts an HTTP server for handler on addr (":0" picks a free
// port) and returns the bound address and a shutdown func — DebugMux's
// handler, possibly extended with extra routes first (the telemetry collector
// mounts /metrics/cluster and /trace/cluster on rank 0). The server runs until
// the shutdown func is called; serving errors after shutdown are swallowed.
func ServeMux(addr string, handler http.Handler) (boundAddr string, shutdown func() error, err error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, fmt.Errorf("trace: debug listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: handler}
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr().String(), srv.Close, nil
}
