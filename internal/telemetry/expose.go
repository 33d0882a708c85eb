package telemetry

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof" // the only allowed pprof import in the module (enforced by lint_test.go and CI)
	"runtime"
	"sort"
	"strings"
)

// varsBody is the /vars response. An explicit struct (not a map) pins the
// field order, so exposition is deterministic byte-for-byte given the same
// registry state: metrics come from Snapshot (sorted by name then labels)
// and runtime stats have a fixed field sequence.
type varsBody struct {
	Metrics []Snapshot  `json:"metrics"`
	Runtime runtimeVars `json:"runtime"`
}

type runtimeVars struct {
	Goroutines int    `json:"goroutines"`
	AllocBytes uint64 `json:"alloc_bytes"`
	SysBytes   uint64 `json:"sys_bytes"`
	NumGC      uint32 `json:"num_gc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

// Handler serves a registry over HTTP:
//
//	/              index of endpoints
//	/metrics       Prometheus text exposition (histograms as summaries)
//	/vars          expvar-style JSON: metric snapshots + runtime stats
//	/debug/pprof/  net/http/pprof profiles (heap, profile, trace, ...)
//
// Every endpoint sets an explicit Content-Type and emits metric families
// in the registry's sorted canonical order.
//
// pprof handlers are registered explicitly on a private mux — importing
// this package does not touch http.DefaultServeMux, and no other package
// in the module may import net/http/pprof (CI enforces this), so profiling
// is only ever exposed through an opt-in -telemetry listener.
func Handler(reg *Registry) http.Handler {
	mux := http.NewServeMux()
	index := []string{"/debug/pprof/", "/metrics", "/vars"}
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, "telemetry endpoints:\n")
		for _, p := range index {
			fmt.Fprintf(w, "  %s\n", p)
		}
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		writePrometheus(w, reg)
	})
	mux.HandleFunc("/vars", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(varsBody{
			Metrics: reg.Snapshot(),
			Runtime: runtimeVars{
				Goroutines: runtime.NumGoroutine(),
				AllocBytes: ms.Alloc,
				SysBytes:   ms.Sys,
				NumGC:      ms.NumGC,
				GOMAXPROCS: runtime.GOMAXPROCS(0),
			},
		})
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// writePrometheus renders the registry in Prometheus text format.
// Counters and gauges are single samples; histograms and timers are
// rendered as summaries (quantile samples plus _sum and _count).
func writePrometheus(w http.ResponseWriter, reg *Registry) {
	snaps := reg.Snapshot()
	// Emit one TYPE line per family even when labeled variants repeat it.
	typed := make(map[string]bool)
	for _, s := range snaps {
		name := sanitize(s.Name)
		labels := promLabels(s.Labels)
		switch s.Kind {
		case KindCounter, KindFloatCounter:
			if !typed[name] {
				fmt.Fprintf(w, "# TYPE %s counter\n", name)
				typed[name] = true
			}
			fmt.Fprintf(w, "%s%s %g\n", name, labels, s.Value)
		case KindGauge:
			if !typed[name] {
				fmt.Fprintf(w, "# TYPE %s gauge\n", name)
				typed[name] = true
			}
			fmt.Fprintf(w, "%s%s %g\n", name, labels, s.Value)
		case KindHistogram, KindTimer:
			if !typed[name] {
				fmt.Fprintf(w, "# TYPE %s summary\n", name)
				typed[name] = true
			}
			for _, qv := range []struct {
				q string
				v float64
			}{{"0.5", s.P50}, {"0.95", s.P95}, {"0.99", s.P99}} {
				fmt.Fprintf(w, "%s%s %g\n", name, promLabelsWith(s.Labels, "quantile", qv.q), qv.v)
			}
			fmt.Fprintf(w, "%s_sum%s %g\n", name, labels, s.Sum)
			fmt.Fprintf(w, "%s_count%s %d\n", name, labels, s.Count)
		}
	}
}

func promLabels(labels map[string]string) string {
	return promLabelsWith(labels, "", "")
}

// promLabelsWith renders a label map (plus one optional extra pair) as
// {k="v",...}, with keys sorted for stable output.
func promLabelsWith(labels map[string]string, extraKey, extraVal string) string {
	if len(labels) == 0 && extraKey == "" {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", sanitize(k), labels[k])
	}
	if extraKey != "" {
		if len(keys) > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", extraKey, extraVal)
	}
	b.WriteByte('}')
	return b.String()
}

// Serve starts the exposition endpoint on addr (e.g. ":6060" or
// "127.0.0.1:0") in a background goroutine and returns the server together
// with the bound address. The caller owns shutdown via srv.Close.
func Serve(addr string, reg *Registry) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", fmt.Errorf("telemetry: listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: Handler(reg)}
	go srv.Serve(ln)
	return srv, ln.Addr().String(), nil
}
