package diag

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/telemetry"
)

// minNormal is the smallest positive normal float64; magnitudes below it
// (other than exact zero) are subnormal, the usual precursor of a silent
// underflow to zero.
const minNormal = 2.2250738585072014e-308

// Probe counts numerical-health violations at one site — NaNs, ±Inf,
// subnormals and exact underflows-to-zero — in lock-free atomics. The
// all-finite fast path of Check is a handful of comparisons with no
// atomic traffic, cheap enough for per-evaluation use inside optimizer
// scans. Each violation is mirrored into a telemetry.Default counter
// ("diag_health_total" with site/class labels, resolved once at probe
// creation) so it surfaces in run manifests without polling — and so
// even a pathological stream of violations costs two atomic adds each,
// never a registry lookup.
type Probe struct {
	site                     string
	nan, inf, subn, underflo atomic.Int64
	mNaN, mInf, mSubn, mUnd  *telemetry.Counter
}

// probes is the global registry of created probes, for HealthSnapshot.
var probes sync.Map // site string → *Probe

// NewProbe returns the probe for a site, creating it on first use. Sites
// are process-global so every caller of a kernel shares one count.
func NewProbe(site string) *Probe {
	if p, ok := probes.Load(site); ok {
		return p.(*Probe)
	}
	mirror := func(class string) *telemetry.Counter {
		return telemetry.Default.Counter("diag_health_total",
			telemetry.L("site", site), telemetry.L("class", class))
	}
	p, _ := probes.LoadOrStore(site, &Probe{
		site: site,
		mNaN: mirror("nan"), mInf: mirror("inf"),
		mSubn: mirror("subnormal"), mUnd: mirror("underflow"),
	})
	return p.(*Probe)
}

func (p *Probe) record(c *atomic.Int64, m *telemetry.Counter) {
	c.Add(1)
	m.Inc()
}

// Check screens one value: NaN, ±Inf and subnormal magnitudes are counted
// against the probe. It returns true when v is finite (subnormals are
// finite but still recorded). The all-good path costs only comparisons.
func (p *Probe) Check(v float64) bool {
	if math.IsNaN(v) {
		p.record(&p.nan, p.mNaN)
		return false
	}
	if math.IsInf(v, 0) {
		p.record(&p.inf, p.mInf)
		return false
	}
	if v != 0 && v < minNormal && v > -minNormal {
		p.record(&p.subn, p.mSubn)
	}
	return true
}

// CheckPositive screens a value that should be a strictly positive finite
// quantity (a probability, a variance): beyond Check it counts an exact
// zero as an underflow — the silent failure mode of exp(−N·I) at large
// rates, where the estimate vanishes without any IEEE flag surviving.
func (p *Probe) CheckPositive(v float64) bool {
	if !p.Check(v) {
		return false
	}
	if v == 0 {
		p.record(&p.underflo, p.mUnd)
	}
	return true
}

// HealthCounts is the point-in-time state of one probe.
type HealthCounts struct {
	Site      string `json:"site"`
	NaN       int64  `json:"nan,omitempty"`
	Inf       int64  `json:"inf,omitempty"`
	Subnormal int64  `json:"subnormal,omitempty"`
	Underflow int64  `json:"underflow,omitempty"`
}

// Total returns the number of violations recorded at the site.
func (h HealthCounts) Total() int64 { return h.NaN + h.Inf + h.Subnormal + h.Underflow }

// Counts snapshots the probe.
func (p *Probe) Counts() HealthCounts {
	return HealthCounts{
		Site:      p.site,
		NaN:       p.nan.Load(),
		Inf:       p.inf.Load(),
		Subnormal: p.subn.Load(),
		Underflow: p.underflo.Load(),
	}
}

// HealthSnapshot reports every probe that has recorded at least one
// violation, sorted by site — the end-of-run numerical health check the
// CLIs log and persist.
func HealthSnapshot() []HealthCounts {
	var out []HealthCounts
	probes.Range(func(_, v any) bool {
		c := v.(*Probe).Counts()
		if c.Total() > 0 {
			out = append(out, c)
		}
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Site < out[j].Site })
	return out
}
