package experiments

import (
	"fmt"

	"repro/internal/cellsim"
	"repro/internal/models"
)

// ExtFLR measures the cell-level multiplexer across buffer sizes,
// reporting both the cell loss ratio and the AAL5 frame damage ratio for
// Z^0.975 at N = 10 sources and 97% load. The FLR/CLR amplification is
// the QOS quantity a video decoder actually experiences (one lost cell
// fails the whole CPCS-PDU's CRC-32); the paper's CLR targets implicitly
// assume this amplification is bounded by loss clustering, which the
// experiment verifies.
func ExtFLR(cfg SimConfig) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	z, err := models.NewZ(0.975)
	if err != nil {
		return nil, err
	}
	const (
		n     = 10
		slots = 5150 // cells/frame through the link (97% load at μ = 500)
	)
	res := &Result{
		ID:     "extflr",
		Title:  "Cell-level CLR vs AAL5 frame damage (Z^0.975, N=10, 97% load)",
		XLabel: "buffer cells (total)", YLabel: "ratio",
	}
	clr := Series{Label: "CLR"}
	flr := Series{Label: "FLR"}
	amp := Series{Label: "FLR/CLR"}
	for _, buf := range []int{50, 100, 200, 400, 800} {
		r, err := cellsim.RunFrameLoss(cellsim.Config{
			Model: z, N: n, SlotsPerFrame: slots,
			BufferCells: buf, Frames: cfg.Frames,
			Warmup: cfg.Frames / 20, Seed: cfg.Seed,
		})
		if err != nil {
			return nil, fmt.Errorf("extflr at %d cells: %w", buf, err)
		}
		x := float64(buf)
		clr.X = append(clr.X, x)
		clr.Y = append(clr.Y, r.CLR)
		flr.X = append(flr.X, x)
		flr.Y = append(flr.Y, r.FLR)
		amp.X = append(amp.X, x)
		if r.CLR > 0 {
			amp.Y = append(amp.Y, r.FLR/r.CLR)
		} else {
			amp.Y = append(amp.Y, 0)
		}
	}
	res.Series = append(res.Series, clr, flr, amp)
	return res, nil
}
