// Command dynamics explores the paper's Section IV analysis numerically:
// it prints the fluid-model trajectory n_t of threads in the LAU-SPC retry
// loop (Theorem 3), the fixed points under increasing persistence gain γ
// (Corollaries 3.1/3.2), and validates the model against the discrete-event
// simulator.
//
// Usage:
//
//	go run ./examples/dynamics [-m 16] [-tc 10] [-tu 2]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"leashedsgd/internal/queuemodel"
	"leashedsgd/internal/report"
)

func main() {
	m := flag.Int("m", 16, "worker count")
	tc := flag.Float64("tc", 10, "gradient computation time Tc (arbitrary units)")
	tu := flag.Float64("tu", 2, "retry-loop pass time Tu")
	flag.Parse()

	p := queuemodel.Params{M: *m, Tc: *tc, Tu: *tu}
	if err := p.Validate(); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("fluid model: m=%d Tc=%g Tu=%g\n", *m, *tc, *tu)
	fmt.Printf("fixed point n* = %.3f (balance n*/m = %.3f)\n\n", p.FixedPoint(), p.Balance())

	// Theorem 3 trajectory from an empty retry loop.
	traj := p.Trajectory(100, 0)
	var s report.Series
	s.Name = "n_t (fluid)"
	for t, n := range traj {
		s.X = append(s.X, float64(t))
		s.Y = append(s.Y, n)
	}
	report.Chart(os.Stdout, "Theorem 3: retry-loop occupancy n_t -> n*", 70, 14, []report.Series{s})

	// Corollary 3.2: the persistence gain shifts the fixed point down.
	tbl := report.NewTable("Corollary 3.2: fixed point and E[tau_s] vs persistence gain",
		"gamma", "n*_gamma", "E[tau_s]")
	for _, gamma := range []float64{0, 0.25, 0.5, 1, 2, 4, 16} {
		pg := queuemodel.Params{M: *m, Tc: *tc, Tu: *tu, Gamma: gamma}
		tbl.AddRow(fmt.Sprintf("%.2f", gamma),
			fmt.Sprintf("%.3f", pg.FixedPoint()),
			fmt.Sprintf("%.3f", pg.ExpectedTauS()))
	}
	fmt.Println()
	tbl.Render(os.Stdout)

	// Validate against the discrete-event simulator.
	fmt.Println()
	ideal := queuemodel.Simulate(p, queuemodel.SimOptions{Tp: -1, Steps: 200000, Seed: 7})
	contended := queuemodel.Simulate(p, queuemodel.SimOptions{Tp: -1, Contention: true, Steps: 200000, Seed: 7})
	ps0 := queuemodel.Simulate(p, queuemodel.SimOptions{Tp: 0, Contention: true, Steps: 200000, Seed: 7})
	fmt.Printf("simulator occupancy: ideal %.3f (fluid predicts %.3f), contended %.3f, Tp=0 %.3f\n",
		ideal.MeanOccupancy, p.FixedPoint(), contended.MeanOccupancy, ps0.MeanOccupancy)
	fmt.Printf("simulator tau_s:     contended %.3f -> Tp=0 %.3f (dropped %d gradients)\n",
		contended.MeanTauS, ps0.MeanTauS, ps0.Dropped)
	fmt.Println("\nThe Tp=0 column shows the contention-regulation mechanism: bounding CAS")
	fmt.Println("retries drains the retry loop and cuts the scheduling staleness component.")
}
