package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func readAll(t *testing.T, r io.Reader) string {
	t.Helper()
	b, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestExpositionDeterministicOrder scrapes a static registry twice and
// checks the output is byte-identical with families in sorted order and
// explicit Content-Type headers on every endpoint.
func TestExpositionDeterministicOrder(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("zeta_total").Add(1)
	reg.Counter("alpha_total").Add(2)
	reg.Gauge("mid_gauge", L("b", "2")).Set(3)
	reg.Gauge("mid_gauge", L("a", "1")).Set(4)
	reg.Histogram("hist_cells").Observe(10)
	srv := httptest.NewServer(Handler(reg))
	defer srv.Close()

	get := func(path, wantCT string) string {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if got := resp.Header.Get("Content-Type"); got != wantCT {
			t.Errorf("GET %s Content-Type = %q, want %q", path, got, wantCT)
		}
		var b strings.Builder
		if _, err := fmt.Fprint(&b, readAll(t, resp.Body)); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}

	m1 := get("/metrics", "text/plain; version=0.0.4; charset=utf-8")
	m2 := get("/metrics", "text/plain; version=0.0.4; charset=utf-8")
	if m1 != m2 {
		t.Error("/metrics not byte-identical across scrapes of a static registry")
	}
	// Families sorted: alpha before mid before zeta; label variants sorted.
	for _, pair := range [][2]string{
		{"alpha_total", "hist_cells"},
		{"hist_cells", "mid_gauge"},
		{`mid_gauge{a="1"}`, `mid_gauge{b="2"}`},
		{"mid_gauge", "zeta_total"},
	} {
		if strings.Index(m1, pair[0]) >= strings.Index(m1, pair[1]) {
			t.Errorf("/metrics order: %q should precede %q\n%s", pair[0], pair[1], m1)
		}
	}

	get("/", "text/plain; charset=utf-8")
	v1 := get("/vars", "application/json")
	var body struct {
		Metrics []Snapshot `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(v1), &body); err != nil {
		t.Fatalf("/vars decode: %v", err)
	}
	for i := 1; i < len(body.Metrics); i++ {
		if body.Metrics[i-1].Name > body.Metrics[i].Name {
			t.Errorf("/vars metrics unsorted: %s after %s", body.Metrics[i].Name, body.Metrics[i-1].Name)
		}
	}
}

// TestScrapeWhileWrite hammers /metrics and /vars while writers mutate the
// registry — run under -race in CI. Counters parsed from consecutive
// /vars scrapes must never decrease.
func TestScrapeWhileWrite(t *testing.T) {
	reg := NewRegistry()
	srv := httptest.NewServer(Handler(reg))
	defer srv.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := reg.Counter("scrape_hammer_total")
			h := reg.Histogram("scrape_hammer_cells", L("w", fmt.Sprint(w)))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				c.Inc()
				h.Observe(float64(i % 1000))
			}
		}(w)
	}

	deadline := time.After(200 * time.Millisecond)
	var lastCounter float64
	var lastCounts = map[string]int64{}
scrape:
	for {
		select {
		case <-deadline:
			break scrape
		default:
		}
		for _, path := range []string{"/metrics", "/vars"} {
			resp, err := srv.Client().Get(srv.URL + path)
			if err != nil {
				t.Fatalf("GET %s: %v", path, err)
			}
			if path == "/vars" {
				var body struct {
					Metrics []Snapshot `json:"metrics"`
				}
				if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
					t.Fatalf("/vars decode: %v", err)
				}
				for _, m := range body.Metrics {
					switch m.Kind {
					case KindCounter:
						if m.Name == "scrape_hammer_total" {
							if m.Value < lastCounter {
								t.Fatalf("counter went backwards: %g -> %g", lastCounter, m.Value)
							}
							lastCounter = m.Value
						}
					case KindHistogram:
						key := m.Name + "|" + m.Labels["w"]
						if m.Count < lastCounts[key] {
							t.Fatalf("histogram %s count went backwards: %d -> %d",
								key, lastCounts[key], m.Count)
						}
						lastCounts[key] = m.Count
					}
				}
			}
			resp.Body.Close()
		}
	}
	close(stop)
	wg.Wait()
}

// BenchmarkHistogramStats measures one full histogram snapshot — the
// per-histogram cost of a /metrics or /vars scrape. The pooled counts buffer keeps this
// allocation-free (before the pool: one ~4.5 KB slice per call).
func BenchmarkHistogramStats(b *testing.B) {
	h := NewHistogram()
	for i := 0; i < 10000; i++ {
		h.Observe(float64(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := h.Stats()
		if st.Count == 0 {
			b.Fatal("empty stats")
		}
	}
}

// BenchmarkHistogramQuantile measures the lighter single-quantile path.
func BenchmarkHistogramQuantile(b *testing.B) {
	h := NewHistogram()
	for i := 0; i < 10000; i++ {
		h.Observe(float64(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if h.Quantile(0.99) == 0 {
			b.Fatal("zero quantile")
		}
	}
}
