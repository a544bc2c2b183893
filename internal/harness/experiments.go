package harness

import (
	"fmt"
	"io"

	"leashedsgd/internal/metrics"
	"leashedsgd/internal/report"
	"leashedsgd/internal/sgd"
)

// Fig3Scalability runs experiment S1: ε-convergence rate and computational
// efficiency across thread counts (paper Fig. 3, both panels). It returns
// the convergence-rate table and the time-per-iteration table.
func Fig3Scalability(sc Scale, specs []AlgoSpec, threads []int, epsilon float64) (conv, comp *report.Table, cells map[string][]Cell) {
	conv = report.NewTable(
		fmt.Sprintf("Fig.3(left): time (s) to eps=%.0f%% vs threads [%s]", epsilon*100, sc.Arch),
		append([]string{"algo"}, threadHeaders(threads)...)...)
	comp = report.NewTable(
		fmt.Sprintf("Fig.3(right): time per iteration (ms) vs threads [%s]", sc.Arch),
		append([]string{"algo"}, threadHeaders(threads)...)...)
	cells = make(map[string][]Cell)
	for _, spec := range specs {
		convRow := []string{spec.Name}
		compRow := []string{spec.Name}
		for _, m := range threads {
			if spec.Algo == sgd.Seq && m != 1 {
				convRow = append(convRow, "")
				compRow = append(compRow, "")
				continue
			}
			cell := RunCell(sc, spec, m, epsilon, sc.Eta, false)
			cells[spec.Name] = append(cells[spec.Name], cell)
			convRow = append(convRow, cellSummary(cell))
			compRow = append(compRow, report.FmtSeconds(metrics.NewBoxStats(cell.PerUpdMs).Med))
		}
		conv.AddRow(convRow...)
		comp.AddRow(compRow...)
	}
	return conv, comp, cells
}

// Fig4Precision runs experiment S2/S4: time to increasingly strict ε at a
// fixed thread count (paper Fig. 4). One run per trial at the strictest ε;
// looser thresholds are extracted from the loss traces.
func Fig4Precision(sc Scale, specs []AlgoSpec, workers int, epsilons []float64) (*report.Table, map[string]Cell) {
	strictest := epsilons[0]
	for _, e := range epsilons {
		if e < strictest {
			strictest = e
		}
	}
	headers := []string{"algo"}
	for _, e := range epsilons {
		headers = append(headers, fmt.Sprintf("eps=%.3g%%", e*100))
	}
	headers = append(headers, "diverge", "crash")
	tbl := report.NewTable(
		fmt.Sprintf("Fig.4: time (s) to precision, %d threads [%s]", workers, sc.Arch), headers...)
	cells := make(map[string]Cell)
	for _, spec := range specs {
		cell := RunCell(sc, spec, workers, strictest, sc.Eta, false)
		cells[spec.Name] = cell
		row := []string{spec.Name}
		for _, e := range epsilons {
			bs := metrics.NewBoxStats(cell.TimeToEpsilon(e))
			row = append(row, bs.String())
		}
		row = append(row, report.FmtCount(cell.Diverged), report.FmtCount(cell.Crashed))
		tbl.AddRow(row...)
	}
	return tbl, cells
}

// Fig5Traces renders the loss-over-time training curves (paper Fig. 5 / the
// middle panel of Fig. 7) from already-run cells: the first trial's trace
// per algorithm.
func Fig5Traces(w io.Writer, title string, cells map[string]Cell, order []AlgoSpec) {
	var series []report.Series
	for _, spec := range order {
		cell, ok := cells[spec.Name]
		if !ok || len(cell.Results) == 0 {
			continue
		}
		tr := cell.Results[0].Trace
		s := report.Series{Name: spec.Name}
		for _, p := range tr.Points {
			s.X = append(s.X, p.Elapsed.Seconds())
			s.Y = append(s.Y, p.Loss)
		}
		series = append(series, s)
	}
	report.Chart(w, title, 72, 18, series)
}

// Fig6Staleness prints the staleness distributions (paper Fig. 6 / right
// panel of Fig. 7) and returns a summary table of the distribution moments.
func Fig6Staleness(w io.Writer, title string, cells map[string]Cell, order []AlgoSpec) *report.Table {
	tbl := report.NewTable(title, "algo", "mean", "p50", "p95", "max", "n")
	for _, spec := range order {
		cell, ok := cells[spec.Name]
		if !ok || len(cell.Results) == 0 {
			continue
		}
		// Merge staleness across trials.
		merged := metrics.NewHist(boundOf(cell))
		for _, res := range cell.Results {
			merged.Merge(res.Staleness)
		}
		tbl.AddRow(spec.Name,
			fmt.Sprintf("%.2f", merged.Mean()),
			fmt.Sprintf("%d", merged.Quantile(0.5)),
			fmt.Sprintf("%d", merged.Quantile(0.95)),
			fmt.Sprintf("%d", merged.Max()),
			fmt.Sprintf("%d", merged.Count()))
		fmt.Fprintf(w, "-- %s staleness --\n%s", spec.Name, merged.String())
	}
	return tbl
}

func boundOf(c Cell) int {
	if len(c.Results) > 0 && c.Results[0].Staleness != nil {
		return c.Results[0].Staleness.Bound()
	}
	return 64
}

// Fig8StepSize runs experiment S1's η sweep (paper Fig. 8): convergence rate
// and statistical efficiency across step sizes at fixed parallelism.
func Fig8StepSize(sc Scale, specs []AlgoSpec, workers int, etas []float64, epsilon float64) (conv, stat *report.Table) {
	headers := []string{"algo"}
	for _, e := range etas {
		headers = append(headers, fmt.Sprintf("eta=%.3g", e))
	}
	conv = report.NewTable(
		fmt.Sprintf("Fig.8(left): time (s) to eps=%.0f%% vs step size, %d threads", epsilon*100, workers), headers...)
	stat = report.NewTable(
		fmt.Sprintf("Fig.8(right): updates to eps=%.0f%% vs step size, %d threads", epsilon*100, workers), headers...)
	for _, spec := range specs {
		convRow := []string{spec.Name}
		statRow := []string{spec.Name}
		for _, eta := range etas {
			cell := RunCell(sc, spec, workers, epsilon, eta, false)
			convRow = append(convRow, cellSummary(cell))
			statRow = append(statRow, report.FmtSeconds(metrics.NewBoxStats(cell.Updates).Med))
		}
		conv.AddRow(convRow...)
		stat.AddRow(statRow...)
	}
	return conv, stat
}

// Fig9TcTu measures gradient-computation and update-application times for
// the MLP and CNN architectures (paper Fig. 9) and the resulting Tc/Tu
// ratio that drives the Sec. IV contention model.
func Fig9TcTu(sc Scale, archs []Arch, workers int) *report.Table {
	tbl := report.NewTable("Fig.9: gradient computation Tc and update Tu (ms)",
		"arch", "Tc med", "Tc q1..q3", "Tu med", "Tu q1..q3", "Tc/Tu")
	for _, arch := range archs {
		s := sc
		s.Arch = arch
		s.Trials = 1
		spec := AlgoSpec{Name: "LSH_psInf", Algo: sgd.Leashed, Persistence: sgd.PersistenceInf}
		cell := RunCell(s, spec, workers, 0, s.Eta, true)
		res := cell.Results[0]
		tc, tu := res.Tc.Stats(), res.Tu.Stats()
		ratio := "-"
		if tu.Med > 0 {
			ratio = fmt.Sprintf("%.1f", tc.Med/tu.Med)
		}
		tbl.AddRow(arch.String(),
			fmt.Sprintf("%.3g", tc.Med),
			fmt.Sprintf("%.3g..%.3g", tc.Q1, tc.Q3),
			fmt.Sprintf("%.3g", tu.Med),
			fmt.Sprintf("%.3g..%.3g", tu.Q1, tu.Q3),
			ratio)
	}
	return tbl
}

// Fig10Memory measures ParameterVector memory footprint across thread counts
// (paper Fig. 10): peak live instances and approximate MB, demonstrating the
// Lemma 2 bound and the recycling advantage in the high-Tc/Tu (CNN) regime.
func Fig10Memory(sc Scale, specs []AlgoSpec, threads []int) *report.Table {
	net, _ := sc.Arch.build(8, sc.Seed)
	d := net.ParamCount()
	tbl := report.NewTable(
		fmt.Sprintf("Fig.10: ParameterVector instances mean/peak and peak MB [%s, d=%d]", sc.Arch, d),
		append([]string{"algo"}, threadHeaders(threads)...)...)
	s := sc
	s.Trials = 1
	for _, spec := range specs {
		row := []string{spec.Name}
		for _, m := range threads {
			cell := RunCell(s, spec, m, 0, s.Eta, false)
			res := cell.Results[0]
			mb := float64(res.PeakLiveVectors) * float64(d) * 8 / (1 << 20)
			row = append(row, fmt.Sprintf("%.1f/%d (%.2f MB)",
				res.MeanLiveVectors(), res.PeakLiveVectors, mb))
		}
		tbl.AddRow(row...)
	}
	return tbl
}

// TableI prints the experiment-plan summary matching the paper's Table I.
func TableI() *report.Table {
	tbl := report.NewTable("Table I: experiment overview",
		"step", "arch", "description", "threads m", "precision eps", "step size", "outcome")
	tbl.AddRow("S1", "MLP", "Hyper-parameter selection", "1..max", "50%", "0.001-0.009", "Fig.3, Fig.8")
	tbl.AddRow("S2", "MLP", "High-precision convergence", "16", "50,10,5,2.5%", "0.005", "Fig.4-6")
	tbl.AddRow("S3", "CNN", "Convergence rate", "16", "75,50,25,10%", "0.005", "Fig.7")
	tbl.AddRow("S4", "MLP", "High parallelism", "24,34,68", "75,50,25,10%", "0.005", "Fig.4-6")
	tbl.AddRow("S5", "MLP+CNN", "Memory consumption", "16,24,34", "any", "0.005", "Fig.10")
	return tbl
}

func threadHeaders(threads []int) []string {
	out := make([]string, len(threads))
	for i, m := range threads {
		out[i] = fmt.Sprintf("m=%d", m)
	}
	return out
}

// cellSummary renders one box-plot cell: median time with failure counts.
func cellSummary(c Cell) string {
	bs := metrics.NewBoxStats(c.TimesSec)
	s := bs.String()
	if c.Diverged > 0 {
		s += fmt.Sprintf(" D%d", c.Diverged)
	}
	if c.Crashed > 0 {
		s += fmt.Sprintf(" C%d", c.Crashed)
	}
	return s
}
