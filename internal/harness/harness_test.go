package harness

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"

	"leashedsgd/internal/sgd"
)

// tinyScale keeps harness tests fast: 12×12 inputs, one or two trials,
// tight budgets.
func tinyScale() Scale {
	return Scale{
		Arch:      TinyMLP,
		Samples:   200,
		BatchSize: 8,
		Trials:    2,
		Eta:       0.1,
		MaxTime:   10 * time.Second,
		Seed:      3,
		EvalEvery: 10 * time.Millisecond,
	}
}

func TestArchBuild(t *testing.T) {
	for _, a := range []Arch{TinyMLP, SmallMLP, SmallCNN, PaperMLP, PaperCNN} {
		net, ds := a.build(20, 1)
		if net.InDim() != ds.Dim() {
			t.Errorf("%v: net input %d != dataset %d", a, net.InDim(), ds.Dim())
		}
		if net.OutDim() != ds.Classes {
			t.Errorf("%v: net output %d != classes %d", a, net.OutDim(), ds.Classes)
		}
	}
}

func TestArchString(t *testing.T) {
	if PaperMLP.String() != "paper-mlp" || SmallCNN.String() != "cnn" {
		t.Fatal("arch names wrong")
	}
}

func TestRunCellConvergesAndCounts(t *testing.T) {
	sc := tinyScale()
	spec := AlgoSpec{Name: "LSH_ps0", Algo: sgd.Leashed, Persistence: 0}
	cell := RunCell(sc, spec, 2, 0.5, sc.Eta, false)
	if len(cell.Results) != sc.Trials {
		t.Fatalf("results = %d, want %d", len(cell.Results), sc.Trials)
	}
	if cell.Converged+cell.Diverged+cell.Crashed != sc.Trials {
		t.Fatalf("outcome counts don't sum: %d+%d+%d", cell.Converged, cell.Diverged, cell.Crashed)
	}
	if cell.Converged == 0 {
		t.Fatalf("no trial converged (diverged=%d crashed=%d)", cell.Diverged, cell.Crashed)
	}
	if len(cell.TimesSec) != sc.Trials || len(cell.PerUpdMs) != sc.Trials {
		t.Fatalf("measurement lengths wrong: %d %d", len(cell.TimesSec), len(cell.PerUpdMs))
	}
}

func TestTimeToEpsilonMonotone(t *testing.T) {
	sc := tinyScale()
	sc.Trials = 1
	spec := AlgoSpec{Name: "SEQ", Algo: sgd.Seq}
	cell := RunCell(sc, spec, 1, 0.4, sc.Eta, false)
	loose := cell.TimeToEpsilon(0.9)
	tight := cell.TimeToEpsilon(0.5)
	if len(loose) != 1 || len(tight) != 1 {
		t.Fatalf("lengths: %d %d", len(loose), len(tight))
	}
	if math.IsNaN(loose[0]) || math.IsNaN(tight[0]) {
		t.Skipf("run did not reach thresholds (loose=%v tight=%v)", loose[0], tight[0])
	}
	if loose[0] > tight[0] {
		t.Fatalf("time to 90%% (%v) exceeds time to 50%% (%v)", loose[0], tight[0])
	}
}

func TestStandardAlgosLegend(t *testing.T) {
	specs := StandardAlgos()
	want := []string{"ASYNC", "HOG", "LSH_psInf", "LSH_ps1", "LSH_ps0"}
	if len(specs) != len(want) {
		t.Fatalf("specs = %d", len(specs))
	}
	for i, s := range specs {
		if s.Name != want[i] {
			t.Errorf("spec %d = %q, want %q", i, s.Name, want[i])
		}
	}
	all := AllAlgos()
	if len(all) != len(specs)+1 || all[0].Name != "SEQ" || all[len(all)-1].Name != "LSH_ps0" {
		t.Fatal("AllAlgos composition wrong")
	}
}

func TestFig3Tables(t *testing.T) {
	sc := tinyScale()
	sc.Trials = 1
	specs := []AlgoSpec{
		{Name: "SEQ", Algo: sgd.Seq},
		{Name: "LSH_ps0", Algo: sgd.Leashed, Persistence: 0},
	}
	conv, comp, cells := Fig3Scalability(sc, specs, []int{1, 2}, 0.5)
	cs := conv.String()
	if !strings.Contains(cs, "SEQ") || !strings.Contains(cs, "LSH_ps0") {
		t.Fatalf("Fig3 conv table: %q", cs)
	}
	if !strings.Contains(comp.String(), "m=2") {
		t.Fatalf("Fig3 comp table missing thread header")
	}
	if len(cells["LSH_ps0"]) != 2 {
		t.Fatalf("cells recorded = %d", len(cells["LSH_ps0"]))
	}
	// SEQ must skip m=2 (blank cell, no run).
	if len(cells["SEQ"]) != 1 {
		t.Fatalf("SEQ ran at m>1: %d cells", len(cells["SEQ"]))
	}
}

func TestFig4PrecisionTable(t *testing.T) {
	sc := tinyScale()
	sc.Trials = 1
	specs := []AlgoSpec{{Name: "LSH_psInf", Algo: sgd.Leashed, Persistence: sgd.PersistenceInf}}
	tbl, cells := Fig4Precision(sc, specs, 2, []float64{0.75, 0.5})
	s := tbl.String()
	if !strings.Contains(s, "eps=75%") || !strings.Contains(s, "eps=50%") {
		t.Fatalf("Fig4 headers: %q", s)
	}
	if _, ok := cells["LSH_psInf"]; !ok {
		t.Fatal("cells missing")
	}
}

func TestFig5And6FromCells(t *testing.T) {
	sc := tinyScale()
	sc.Trials = 1
	specs := []AlgoSpec{{Name: "HOG", Algo: sgd.Hogwild}}
	_, cells := Fig4Precision(sc, specs, 2, []float64{0.5})
	var buf bytes.Buffer
	Fig5Traces(&buf, "traces", cells, specs)
	if !strings.Contains(buf.String(), "HOG") {
		t.Fatalf("Fig5 output: %q", buf.String())
	}
	buf.Reset()
	tbl := Fig6Staleness(&buf, "staleness", cells, specs)
	if !strings.Contains(tbl.String(), "HOG") {
		t.Fatalf("Fig6 table: %q", tbl.String())
	}
}

func TestFig8Tables(t *testing.T) {
	sc := tinyScale()
	sc.Trials = 1
	specs := []AlgoSpec{{Name: "SEQ", Algo: sgd.Seq}}
	conv, stat := Fig8StepSize(sc, specs, 1, []float64{0.05, 0.1}, 0.5)
	if !strings.Contains(conv.String(), "eta=0.05") {
		t.Fatalf("Fig8 conv: %q", conv.String())
	}
	if !strings.Contains(stat.String(), "eta=0.1") {
		t.Fatalf("Fig8 stat: %q", stat.String())
	}
}

func TestFig9TcTu(t *testing.T) {
	sc := tinyScale()
	sc.MaxTime = 1500 * time.Millisecond
	tbl := Fig9TcTu(sc, []Arch{TinyMLP}, 2)
	s := tbl.String()
	if !strings.Contains(s, "tiny-mlp") || !strings.Contains(s, "Tc med") {
		t.Fatalf("Fig9 table: %q", s)
	}
}

func TestFig10Memory(t *testing.T) {
	sc := tinyScale()
	sc.MaxTime = 1 * time.Second
	specs := []AlgoSpec{
		{Name: "ASYNC", Algo: sgd.Async},
		{Name: "LSH_ps0", Algo: sgd.Leashed, Persistence: 0},
	}
	tbl := Fig10Memory(sc, specs, []int{2})
	s := tbl.String()
	if !strings.Contains(s, "MB") {
		t.Fatalf("Fig10 table: %q", s)
	}
	// ASYNC at m=2 must report exactly 5 peak instances (2m+1).
	if !strings.Contains(s, "/5 (") {
		t.Fatalf("ASYNC 2m+1 accounting missing: %q", s)
	}
}

func TestTableI(t *testing.T) {
	s := TableI().String()
	for _, step := range []string{"S1", "S2", "S3", "S4", "S5"} {
		if !strings.Contains(s, step) {
			t.Fatalf("Table I missing %s", step)
		}
	}
}
