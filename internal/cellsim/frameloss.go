package cellsim

import (
	"fmt"
	"sort"

	"repro/internal/seed"
)

// FrameLossResult extends the cell-level accounting with video-frame-level
// quality: a source's frame is damaged if any of its cells was dropped.
// Because an AAL5 CPCS-PDU fails its CRC when any constituent cell is
// missing (see package atm), the frame damage ratio — not the raw cell
// loss ratio — is what a video decoder experiences, and it is amplified
// roughly by the number of cells per frame.
type FrameLossResult struct {
	Result
	SourceFrames  int64   // frames offered across all sources
	DamagedFrames int64   // frames that lost at least one cell
	FLR           float64 // DamagedFrames / SourceFrames
}

// RunFrameLoss runs the slotted simulation like Run, additionally
// attributing each dropped cell to its source so frame damage can be
// counted. Within an overflowing slot, drops hit the latest arrivals with
// the per-slot source order rotated by the slot index, so no source is
// systematically favoured. N is capped at 255 sources by the event
// encoding.
func RunFrameLoss(cfg Config) (FrameLossResult, error) {
	if err := cfg.Validate(); err != nil {
		return FrameLossResult{}, err
	}
	if cfg.N > 255 {
		return FrameLossResult{}, fmt.Errorf("cellsim: frame-loss tracking supports at most 255 sources, got %d", cfg.N)
	}
	srcs := make([]source, cfg.N)
	seeds := seed.Children(cfg.Seed, cfg.N)
	for i := range srcs {
		srcs[i].gen = cfg.Model.NewGenerator(seeds[i])
	}

	var (
		res     FrameLossResult
		queue   int
		events  []uint32 // slot<<8 | source id
		damaged = make([]bool, cfg.N)
	)
	res.Frames = cfg.Frames
	total := cfg.Warmup + cfg.Frames
	for frame := 0; frame < total; frame++ {
		measuring := frame >= cfg.Warmup
		events = events[:0]
		for i := range srcs {
			f := srcs[i].cellsThisFrame()
			if f <= 0 {
				continue
			}
			if measuring {
				res.SourceFrames++
			}
			// k·S/f < S for every k < f, so this handles f > S naturally
			// (several cells share a slot).
			for k := 0; k < f; k++ {
				slot := k * cfg.SlotsPerFrame / f
				events = append(events, uint32(slot)<<8|uint32(i))
			}
			damaged[i] = false
		}
		// Rotate tie order per slot so drop attribution is fair, then sort.
		rot := uint32(frame % cfg.N)
		for j, e := range events {
			src := (e&0xFF + rot) % uint32(cfg.N)
			events[j] = e&^0xFF | src
		}
		sort.Slice(events, func(a, b int) bool { return events[a] < events[b] })

		prevSlot := -1
		slotStart := 0
		flush := func(end int) {
			if prevSlot < 0 {
				return
			}
			group := events[slotStart:end]
			a := len(group)
			if measuring {
				res.ArrivedCells += int64(a)
			}
			queue += a
			if queue > cfg.BufferCells {
				lost := queue - cfg.BufferCells
				queue = cfg.BufferCells
				if measuring {
					res.LostCells += int64(lost)
					// The last `lost` arrivals in the rotated order drop.
					for _, e := range group[len(group)-lost:] {
						src := (int(e&0xFF) + cfg.N - int(rot)) % cfg.N
						damaged[src] = true
					}
				}
			}
			if measuring && queue > res.MaxQueue {
				res.MaxQueue = queue
			}
		}
		for j, e := range events {
			slot := int(e >> 8)
			if slot != prevSlot {
				flush(j)
				// Serve the slots between arrivals: one departure each.
				gap := slot - prevSlot
				if queue < gap {
					queue = 0
				} else {
					queue -= gap
				}
				prevSlot = slot
				slotStart = j
			}
		}
		flush(len(events))
		// Drain the remainder of the frame's slots.
		if prevSlot >= 0 {
			gap := cfg.SlotsPerFrame - prevSlot - 1
			if queue < gap {
				queue = 0
			} else {
				queue -= gap
			}
		} else {
			if queue < cfg.SlotsPerFrame {
				queue = 0
			} else {
				queue -= cfg.SlotsPerFrame
			}
		}
		prevSlot = -1
		if measuring {
			for i := range damaged {
				if damaged[i] {
					res.DamagedFrames++
				}
			}
		}
	}
	res.FinalQueue = queue
	if res.ArrivedCells > 0 {
		res.CLR = float64(res.LostCells) / float64(res.ArrivedCells)
	}
	if res.SourceFrames > 0 {
		res.FLR = float64(res.DamagedFrames) / float64(res.SourceFrames)
	}
	return res, nil
}
