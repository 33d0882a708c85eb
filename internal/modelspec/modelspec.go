// Package modelspec parses the compact command-line syntax the cmd/ tools
// use to name traffic models:
//
//	z:<a>        Z^a, e.g. z:0.975
//	v:<v>        V^v, e.g. v:1.5
//	l            the exact-LRD model L
//	dar:<a>:<p>  DAR(p) fit to Z^a, e.g. dar:0.975:2
//	dar1:<rho>   raw DAR(1) with lag-1 correlation rho and the standard
//	             Gaussian marginal (μ=500, σ²=5000)
//	fgn:<H>      fractional Gaussian noise with the standard marginal
//	mginf:<H>    M/G/∞ (Cox) source with the standard moments
//	mpeg:<a>     MPEG GOP-modulated Z^a with the typical I:P:B = 5:3:1
//	             pattern
//	aimd:<spec>  closed-loop AIMD rate controller wrapped around any other
//	             spec, e.g. aimd:z:0.975 — sources adapt frame sizes to
//	             multiplexer feedback (default controller parameters)
package modelspec

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/dar"
	"repro/internal/fgn"
	"repro/internal/mginf"
	"repro/internal/models"
	"repro/internal/traffic"
)

// Parse resolves a model specification string to a traffic.Model.
func Parse(spec string) (traffic.Model, error) {
	parts := strings.Split(strings.TrimSpace(strings.ToLower(spec)), ":")
	switch parts[0] {
	case "aimd":
		if len(parts) < 2 {
			return nil, fmt.Errorf("modelspec: want aimd:<spec>, got %q", spec)
		}
		base, err := Parse(strings.Join(parts[1:], ":"))
		if err != nil {
			return nil, err
		}
		return models.NewAIMD(base, models.AIMDConfig{})
	case "z":
		a, err := oneArg(parts, "z:<a>")
		if err != nil {
			return nil, err
		}
		return models.NewZ(a)
	case "v":
		v, err := oneArg(parts, "v:<v>")
		if err != nil {
			return nil, err
		}
		return models.NewV(v)
	case "l":
		if len(parts) != 1 {
			return nil, fmt.Errorf("modelspec: l takes no arguments")
		}
		return models.NewL()
	case "dar":
		if len(parts) != 3 {
			return nil, fmt.Errorf("modelspec: want dar:<a>:<p>, got %q", spec)
		}
		a, err := parseFinite(parts[1])
		if err != nil {
			return nil, fmt.Errorf("modelspec: bad a in %q: %w", spec, err)
		}
		p, err := strconv.Atoi(parts[2])
		if err != nil {
			return nil, fmt.Errorf("modelspec: bad order in %q: %w", spec, err)
		}
		z, err := models.NewZ(a)
		if err != nil {
			return nil, err
		}
		return models.FitS(z, p)
	case "dar1":
		rho, err := oneArg(parts, "dar1:<rho>")
		if err != nil {
			return nil, err
		}
		return dar.NewDAR1(rho, dar.GaussianMarginal(models.Mean, models.Variance))
	case "fgn":
		h, err := oneArg(parts, "fgn:<H>")
		if err != nil {
			return nil, err
		}
		return fgn.NewModel(h, models.Mean, models.Variance)
	case "mginf":
		h, err := oneArg(parts, "mginf:<H>")
		if err != nil {
			return nil, err
		}
		return mginf.NewFromMoments(models.Mean, models.Variance, h, models.Ts, models.Ts)
	case "mpeg":
		a, err := oneArg(parts, "mpeg:<a>")
		if err != nil {
			return nil, err
		}
		z, err := models.NewZ(a)
		if err != nil {
			return nil, err
		}
		w, err := models.GOPWeights(models.TypicalGOP, 5, 3, 1)
		if err != nil {
			return nil, err
		}
		return models.NewMPEG(z, w)
	default:
		return nil, fmt.Errorf("modelspec: unknown model %q (want z:, v:, l, dar:, dar1:, fgn:, aimd:, ...)", spec)
	}
}

// ParseList resolves a comma-separated list of specs.
func ParseList(specs string) ([]traffic.Model, error) {
	var out []traffic.Model
	for _, s := range strings.Split(specs, ",") {
		s = strings.TrimSpace(s)
		if s == "" {
			continue
		}
		m, err := Parse(s)
		if err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("modelspec: no models in %q", specs)
	}
	return out, nil
}

func oneArg(parts []string, usage string) (float64, error) {
	if len(parts) != 2 {
		return 0, fmt.Errorf("modelspec: want %s, got %q", usage, strings.Join(parts, ":"))
	}
	v, err := parseFinite(parts[1])
	if err != nil {
		return 0, fmt.Errorf("modelspec: bad number in %q: %w", strings.Join(parts, ":"), err)
	}
	return v, nil
}

// parseFinite parses a float and rejects NaN and ±Inf, which
// strconv.ParseFloat accepts ("nan", "inf") and which slip past the
// models' lo < x < hi range checks.
func parseFinite(s string) (float64, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, err
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("%q is not a finite number", s)
	}
	return v, nil
}
