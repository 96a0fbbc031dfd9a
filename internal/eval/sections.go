package eval

import (
	"bytes"
	"fmt"
	"io"
	"slices"
	"strings"
)

// Section is one block of dcpieval's output: "==== Header ====", a blank
// line, the body Run renders, and a blank line. Every simulation Run needs
// goes through the runner in its Options. One of Table, Fig and Ablation is
// set: the -table, -fig or -ablation value that selects the section alone.
type Section struct {
	Header     string
	Table, Fig int
	Ablation   string
	Run        func(o Options, w io.Writer) error
}

// Sections is every section, in output order. Figures 3 and 4 are one
// section, listed under 3, because Figure 4 summarizes Figure 3's runs.
var Sections = []Section{
	{Table: 2, Header: "Table 2: workloads and base runtimes", Run: report(Table2, FormatTable2)},
	{Table: 3, Header: "Table 3: overall slowdown", Run: report(Table3, FormatTable3)},
	{Table: 4, Header: "Table 4: time overhead components", Run: report(Table4, FormatTable4)},
	{Table: 5, Header: "Table 5: space overhead", Run: report(Table5, FormatTable5)},
	{Fig: 1, Header: "Figure 1: dcpiprof on x11perf", Run: Fig1},
	{Fig: 2, Header: "Figure 2: dcpicalc on the copy loop", Run: Fig2},
	{Fig: 3, Header: "Figures 3 & 4: dcpistats and the smooth_ summary", Run: figs34(3, 4)},
	{Fig: 7, Header: "Figure 7: frequency estimation for the copy loop", Run: Fig7},
	{Fig: 6, Header: "Figure 6: running-time distributions", Run: report(Fig6, FormatFig6)},
	{Fig: 8, Header: "Figure 8: instruction-frequency accuracy", Run: fig8Section},
	{Fig: 9, Header: "Figure 9: edge-frequency accuracy", Run: fig9Section},
	{Fig: 10, Header: "Figure 10: I-cache stalls vs IMISS events", Run: report(Fig10, FormatFig10)},
	{Ablation: "ht", Header: "Ablation: hash-table design space (§5.4)", Run: report(AblationHT, FormatAblation)},
	{Ablation: "loss", Header: "Ablation: daemon lag vs. sample loss (§4.2.3)", Run: report(LossSweep, FormatLossSweep)},
}

// figs is the -fig values that select s alone: Figure 4 summarizes Figure
// 3's runs, so their section answers to both.
func (s Section) figs() []int {
	switch s.Fig {
	case 0:
		return nil
	case 3:
		return []int{3, 4}
	}
	return []int{s.Fig}
}

// Select returns, in output order, the sections that all or one of table,
// fig and ablation asks for; none when nothing matches. Figure 3 or 4 asked
// for alone runs their shared section and prints only that figure.
func Select(all bool, table, fig int, ablation string) []Section {
	var out []Section
	for _, s := range Sections {
		figs := s.figs()
		if !all && len(figs) > 1 && slices.Contains(figs, fig) {
			s.Run = figs34(fig)
		}
		if all || s.Table != 0 && s.Table == table || slices.Contains(figs, fig) ||
			s.Ablation != "" && s.Ablation == ablation {
			out = append(out, s)
		}
	}
	return out
}

// Keys renders, for dcpieval's flag help, the values that select a section
// alone: the -table and -fig values as ranges ("2-5", "1-4, 6-10") and the
// -ablation values as a list ("ht, loss").
func Keys() (tables, figs, ablations string) {
	var ts, fs []int
	var as []string
	for _, s := range Sections {
		switch {
		case s.Table != 0:
			ts = append(ts, s.Table)
		case s.Fig != 0:
			fs = append(fs, s.figs()...)
		default:
			as = append(as, s.Ablation)
		}
	}
	return ranges(ts), ranges(fs), strings.Join(as, ", ")
}

// ranges renders ns in increasing order, each run of consecutive numbers as
// "lo-hi": 1 2 3 4 6 7 is "1-4, 6-7".
func ranges(ns []int) string {
	slices.Sort(ns)
	var parts []string
	for i := 0; i < len(ns); {
		j := i
		for j+1 < len(ns) && ns[j+1] == ns[j]+1 {
			j++
		}
		if j == i {
			parts = append(parts, fmt.Sprint(ns[i]))
		} else {
			parts = append(parts, fmt.Sprintf("%d-%d", ns[i], ns[j]))
		}
		i = j + 1
	}
	return strings.Join(parts, ", ")
}

// Run starts every section at once, each on its own goroutine and all on
// o's one runner, which bounds their simulations and runs identical ones
// once. It hands each section's bytes to emit in list order, as soon as that
// section and every one before it are done, so output is the same for any
// worker count while a long sweep still shows progress. A section that
// failed hands over its header and what it wrote before err.
func Run(o Options, sections []Section, emit func(s Section, out []byte, err error)) {
	o = o.withDefaults()
	bufs := make([]bytes.Buffer, len(sections))
	errs := make([]error, len(sections))
	done := make([]chan struct{}, len(sections))
	for i, s := range sections {
		done[i] = make(chan struct{})
		go func() {
			defer close(done[i])
			fmt.Fprintf(&bufs[i], "==== %s ====\n\n", s.Header)
			if errs[i] = s.Run(o, &bufs[i]); errs[i] == nil {
				fmt.Fprintln(&bufs[i])
			}
		}()
	}
	for i, s := range sections {
		<-done[i]
		emit(s, bufs[i].Bytes(), errs[i])
	}
}

// report is the common section shape: compute the rows, then render them.
func report[T any](run func(Options) (T, error), format func(io.Writer, T)) func(Options, io.Writer) error {
	return func(o Options, w io.Writer) error {
		rows, err := run(o)
		if err != nil {
			return err
		}
		format(w, rows)
		return nil
	}
}

// figs34 runs Figure 3 and then Figure 4 on its runs, and prints the
// figures among show.
func figs34(show ...int) func(Options, io.Writer) error {
	to := func(w io.Writer, fig int) io.Writer {
		if slices.Contains(show, fig) {
			return w
		}
		return io.Discard
	}
	return func(o Options, w io.Writer) error {
		results, err := Fig3(o, to(w, 3))
		if err != nil {
			return err
		}
		return Fig4(to(w, 4), results)
	}
}

// fig8Section is Figure 8 and the multi-run convergence table under it.
func fig8Section(o Options, w io.Writer) error {
	res, err := Fig8(o)
	if err != nil {
		return err
	}
	FormatAccuracy(w, "Figure 8: distribution of errors in instruction frequencies", res)
	mr, err := Fig8MultiRun(o, 4)
	if err != nil {
		return err
	}
	fmt.Fprintln(w)
	FormatMultiRun(w, mr)
	return nil
}

// fig9Section is Figure 9 and its two §7 variants.
func fig9Section(o Options, w io.Writer) error {
	res, err := Fig9(o)
	if err != nil {
		return err
	}
	FormatAccuracy(w, "Figure 9: distribution of errors in edge frequencies", res)
	ds, err := Fig9DoubleSampling(o)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nwith par.7 double sampling:       within 5%% %.1f%%, within 10%% %.1f%%\n",
		100*ds.Within5, 100*ds.Within10)
	interp, err := Fig9Interpretation(o)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "with par.7 branch interpretation: within 5%% %.1f%%, within 10%% %.1f%%\n",
		100*interp.Within5, 100*interp.Within10)
	return nil
}
