package eval

import (
	"fmt"
	"slices"
	"strings"
	"testing"
)

// dcpieval's flag help is Keys: every -table, -fig and -ablation value it
// names selects exactly one section, and no value it leaves out selects any.
func TestKeysNameWhatSelectTakes(t *testing.T) {
	tables, figs, ablations := Keys()
	expand := func(r string) (out []int) {
		for _, part := range strings.Split(r, ", ") {
			var lo, hi int
			if _, err := fmt.Sscanf(part, "%d-%d", &lo, &hi); err != nil {
				fmt.Sscan(part, &lo)
				hi = lo
			}
			for n := lo; n <= hi; n++ {
				out = append(out, n)
			}
		}
		return out
	}
	ts, fs := expand(tables), expand(figs)
	for n := 0; n <= 12; n++ {
		if got := len(Select(false, n, 0, "")); got != 0 && !slices.Contains(ts, n) || got != 1 && slices.Contains(ts, n) {
			t.Errorf("-table %d selects %d sections; the help lists %q", n, got, tables)
		}
		if got := len(Select(false, 0, n, "")); got != 0 && !slices.Contains(fs, n) || got != 1 && slices.Contains(fs, n) {
			t.Errorf("-fig %d selects %d sections; the help lists %q", n, got, figs)
		}
	}
	for _, a := range strings.Split(ablations, ", ") {
		if got := len(Select(false, 0, 0, a)); got != 1 {
			t.Errorf("-ablation %s selects %d sections", a, got)
		}
	}
}
