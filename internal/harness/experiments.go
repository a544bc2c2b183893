package harness

import (
	"fmt"
	"io"
	"strings"
	"time"

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

// ShardSweep runs the shard-count contention experiment the sharded
// publication layer opens (extension; not a paper figure): Leashed-SGD at a
// fixed worker count across shard counts, in profiling mode. One row per
// shard count. The cross-row comparable unit is the *publish*: failed/pub
// divides failed CAS attempts by successful shard publishes (TotalUpdates
// for the single chain, Σ ShardPublishes otherwise), since a sharded
// iteration performs up to S publishes where the single chain performs one.
// stal.mean stays in per-chain sequence units — each chain advances ~1/S as
// fast, so it reads as contention per chain, not global version lag.
func ShardSweep(sc Scale, workers int, shardCounts []int, persistence int) *report.Table {
	tbl := report.NewTable(
		fmt.Sprintf("Shard sweep: LSH contention vs shard count, m=%d Tp=%d [%s]",
			workers, persistence, sc.Arch),
		"shards", "iters", "publishes", "failedCAS", "failed/pub", "dropped", "stal.mean", "ms/iter", "shard pub spread")
	s := sc
	s.Trials = 1
	for _, spec := range ShardedAlgos(persistence, shardCounts) {
		cell := RunCell(s, spec, workers, 0, s.Eta, false)
		res := cell.Results[0]
		spread := "-"
		if len(res.ShardPublishes) > 0 {
			lo, hi := res.ShardPublishes[0], res.ShardPublishes[0]
			for _, p := range res.ShardPublishes {
				if p < lo {
					lo = p
				}
				if p > hi {
					hi = p
				}
			}
			spread = fmt.Sprintf("%d..%d", lo, hi)
		}
		tbl.AddRow(
			fmt.Sprintf("%d", res.Shards),
			fmt.Sprintf("%d", res.TotalUpdates),
			fmt.Sprintf("%d", res.Publishes),
			fmt.Sprintf("%d", res.FailedCAS),
			fmt.Sprintf("%.4f", res.FailedPerPublish()),
			fmt.Sprintf("%d", res.DroppedUpdates),
			fmt.Sprintf("%.2f", res.Staleness.Mean()),
			fmt.Sprintf("%.3f", float64(res.TimePerUpdate())/float64(time.Millisecond)),
			spread)
	}
	return tbl
}

// AutoShardSweep compares the autotune controller against the static
// shard-count sweep on the same profiling workload (extension; the
// closed-loop follow-up to ShardSweep): one run per static S plus one
// autotuned run, each reporting contention per publish and efficiency, with
// the controller's S-trajectory and re-shard count on the auto row.
func AutoShardSweep(sc Scale, workers int, shardCounts []int, persistence int) *report.Table {
	tbl := report.NewTable(
		fmt.Sprintf("AutoShard: controller vs static shard sweep, m=%d Tp=%d [%s]",
			workers, persistence, sc.Arch),
		"config", "S", "iters", "failed/pub", "dropped", "ms/iter", "trajectory", "reshards")
	s := sc
	s.Trials = 1
	addRow := func(name string, res *sgd.Result) {
		trajectory := "-"
		if len(res.ShardTrajectory) > 0 {
			parts := make([]string, len(res.ShardTrajectory))
			for i, v := range res.ShardTrajectory {
				parts[i] = fmt.Sprintf("%d", v)
			}
			trajectory = strings.Join(parts, ">")
		}
		tbl.AddRow(name,
			fmt.Sprintf("%d", res.Shards),
			fmt.Sprintf("%d", res.TotalUpdates),
			fmt.Sprintf("%.4f", res.FailedPerPublish()),
			fmt.Sprintf("%d", res.DroppedUpdates),
			fmt.Sprintf("%.3f", float64(res.TimePerUpdate())/float64(time.Millisecond)),
			trajectory,
			fmt.Sprintf("%d", res.Reshards))
	}
	for _, spec := range ShardedAlgos(persistence, shardCounts) {
		cell := RunCell(s, spec, workers, 0, s.Eta, false)
		addRow(spec.Name, cell.Results[0])
	}
	auto := AlgoSpec{Name: "LSH_auto", Algo: sgd.Leashed, Persistence: persistence, AutoTune: true}
	cell := RunCell(s, auto, workers, 0, s.Eta, false)
	addRow(auto.Name, cell.Results[0])
	return tbl
}

// JointCell is one point of the static (Tp, S) reference grid: the measured
// per-window signals the joint autotuner steers by, at a fixed persistence
// bound and shard count.
type JointCell struct {
	Tp, S        int
	FailedPerPub float64 // failed CAS per successful publish (S-axis signal)
	MixedRate    float64 // mixed-version fraction of leased reads (Tp-axis signal)
	Dropped      int64
	MsPerUpdate  float64
}

// JointSweep runs the static Tp×S grid the joint autotuner's convergence is
// judged against (extension; the two-dimensional follow-up to ShardSweep and
// AutoShardSweep): one profiling run per (persistence bound, shard count)
// pair, reporting both steering signals per cell. tps is ordered loose→tight
// (e.g. 16, 8, …, 1, 0) to match the tuned ladder; the returned grid is in
// tps-major order.
func JointSweep(sc Scale, workers int, tps, shardCounts []int) (*report.Table, []JointCell) {
	tbl := report.NewTable(
		fmt.Sprintf("Joint sweep: LSH signals vs (Tp, S), m=%d [%s]", workers, sc.Arch),
		"Tp", "S", "iters", "failed/pub", "mixed%", "dropped", "ms/iter")
	s := sc
	s.Trials = 1
	var grid []JointCell
	for _, tp := range tps {
		for _, sh := range shardCounts {
			spec := AlgoSpec{Name: fmt.Sprintf("LSH_tp%d_s%d", tp, sh),
				Algo: sgd.Leashed, Persistence: tp, Shards: sh}
			cell := RunCell(s, spec, workers, 0, s.Eta, false)
			res := cell.Results[0]
			mixed := 0.0
			if reads := res.ConsistentReads + res.MixedReads; reads > 0 {
				mixed = float64(res.MixedReads) / float64(reads)
			}
			grid = append(grid, JointCell{
				Tp: tp, S: res.Shards,
				FailedPerPub: res.FailedPerPublish(),
				MixedRate:    mixed,
				Dropped:      res.DroppedUpdates,
				MsPerUpdate:  float64(res.TimePerUpdate()) / float64(time.Millisecond),
			})
			tbl.AddRow(
				fmt.Sprintf("%d", tp),
				fmt.Sprintf("%d", res.Shards),
				fmt.Sprintf("%d", res.TotalUpdates),
				fmt.Sprintf("%.4f", res.FailedPerPublish()),
				fmt.Sprintf("%.2f", 100*mixed),
				fmt.Sprintf("%d", res.DroppedUpdates),
				fmt.Sprintf("%.3f", float64(res.TimePerUpdate())/float64(time.Millisecond)))
		}
	}
	return tbl, grid
}

// JointKnee computes the static grid's reference knee by the same rules the
// online joint controller applies, evaluated offline in its coordinate-
// descent order: first climb S along the loosest-Tp row while the failed-CAS
// rate clears sgd.AutoShardClimbRate and the next doubling still pays the
// sgd.AutoShardImprove margin; then, holding that S, tighten Tp (walking tps
// loose→tight) while the mixed-read rate clears sgd.AutoTuneTightenRate and
// the next step pays sgd.AutoTuneImprove. The indices returned address tps
// and shardCounts; a joint controller converging correctly lands within one
// ladder step (one doubling per axis) of this point.
func JointKnee(grid []JointCell, tps, shardCounts []int) (kneeTpIdx, kneeSIdx int) {
	at := func(ti, si int) JointCell { return grid[ti*len(shardCounts)+si] }
	for kneeSIdx+1 < len(shardCounts) &&
		at(0, kneeSIdx).FailedPerPub > sgd.AutoShardClimbRate &&
		at(0, kneeSIdx+1).FailedPerPub <= sgd.AutoShardImprove*at(0, kneeSIdx).FailedPerPub {
		kneeSIdx++
	}
	for kneeTpIdx+1 < len(tps) &&
		at(kneeTpIdx, kneeSIdx).MixedRate > sgd.AutoTuneTightenRate &&
		at(kneeTpIdx+1, kneeSIdx).MixedRate <= sgd.AutoTuneImprove*at(kneeTpIdx, kneeSIdx).MixedRate {
		kneeTpIdx++
	}
	return kneeTpIdx, kneeSIdx
}

// JointTuneCompare renders the joint controller against the static grid's
// knee on the same workload: the JointSweep table, the knee row, and the
// autotuned run with both trajectories.
func JointTuneCompare(sc Scale, workers int, tps, shardCounts []int) (sweep, auto *report.Table) {
	sweep, grid := JointSweep(sc, workers, tps, shardCounts)
	ti, si := JointKnee(grid, tps, shardCounts)

	auto = report.NewTable(
		fmt.Sprintf("Joint autotune: ladder vs model-guided vs static knee Tp=%d S=%d, m=%d [%s]",
			tps[ti], shardCounts[si], workers, sc.Arch),
		"config", "S", "Tp", "iters", "failed/pub", "mixed%",
		"trajectory S", "trajectory Tp", "reshards", "jumps", "fit resid")
	s := sc
	s.Trials = 1
	specs := []AlgoSpec{
		{Name: "LSH_joint", Algo: sgd.Leashed, Persistence: sgd.PersistenceInf, AutoTune: true},
		{Name: "LSH_model", Algo: sgd.Leashed, Persistence: sgd.PersistenceInf, AutoTuneModel: true},
	}
	for _, spec := range specs {
		cell := RunCell(s, spec, workers, 0, s.Eta, false)
		res := cell.Results[0]
		mixed := 0.0
		if reads := res.ConsistentReads + res.MixedReads; reads > 0 {
			mixed = float64(res.MixedReads) / float64(reads)
		}
		finalTp := -1
		if n := len(res.TpTrajectory); n > 0 {
			finalTp = res.TpTrajectory[n-1]
		}
		jumps, resid := "-", "-"
		if mf := res.ModelFit; mf != nil {
			jumps = fmt.Sprintf("%d(+%d lad)", mf.Jumps, mf.LadderMoves)
			if mf.Fitted {
				resid = fmt.Sprintf("%.3f", mf.Residual)
			}
		}
		auto.AddRow(spec.Name,
			fmt.Sprintf("%d", res.Shards),
			fmt.Sprintf("%d", finalTp),
			fmt.Sprintf("%d", res.TotalUpdates),
			fmt.Sprintf("%.4f", res.FailedPerPublish()),
			fmt.Sprintf("%.2f", 100*mixed),
			trajString(res.ShardTrajectory),
			trajString(res.TpTrajectory),
			fmt.Sprintf("%d", res.Reshards),
			jumps, resid)
	}
	return sweep, auto
}

func trajString(traj []int) string {
	if len(traj) == 0 {
		return "-"
	}
	parts := make([]string, len(traj))
	for i, v := range traj {
		parts[i] = fmt.Sprintf("%d", v)
	}
	return strings.Join(parts, ">")
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
