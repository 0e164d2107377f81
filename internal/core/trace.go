package core

import (
	"strings"

	"wrbpg/internal/cdag"
)

// OccupancyTrace replays a schedule and returns the red weight after
// every move (index 0 is the starting state) — the fast-memory
// occupancy timeline hardware designers read sizing decisions from.
func OccupancyTrace(g *cdag.Graph, budget cdag.Weight, s Schedule) ([]cdag.Weight, error) {
	st := NewState(g, budget)
	out := make([]cdag.Weight, 0, len(s)+1)
	out = append(out, 0)
	var stats Stats
	for i := range s {
		if _, f := st.replay(s[i:i+1], &stats); f != legal {
			return nil, st.ruleError(s[i], f, i)
		}
		out = append(out, st.RedWeight())
	}
	return out, nil
}

// sparkRunes are the eight fill levels of a terminal sparkline.
var sparkRunes = []rune("▁▂▃▄▅▆▇█")

// Sparkline renders an occupancy trace as a fixed-width terminal
// sparkline scaled to the budget; width ≤ 0 defaults to 80 columns.
// Each column shows the maximum occupancy of its time slice, so
// budget-critical spikes always remain visible.
func Sparkline(trace []cdag.Weight, budget cdag.Weight, width int) string {
	if len(trace) == 0 || budget <= 0 {
		return ""
	}
	if width <= 0 {
		width = 80
	}
	if width > len(trace) {
		width = len(trace)
	}
	var b strings.Builder
	for c := 0; c < width; c++ {
		lo := c * len(trace) / width
		hi := (c + 1) * len(trace) / width
		if hi <= lo {
			hi = lo + 1
		}
		var max cdag.Weight
		for _, v := range trace[lo:hi] {
			if v > max {
				max = v
			}
		}
		idx := int(int64(max) * int64(len(sparkRunes)-1) / int64(budget))
		if idx < 0 {
			idx = 0
		}
		if idx >= len(sparkRunes) {
			idx = len(sparkRunes) - 1
		}
		b.WriteRune(sparkRunes[idx])
	}
	return b.String()
}
