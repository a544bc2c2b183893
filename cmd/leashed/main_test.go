package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"

	"leashedsgd"
	"leashedsgd/internal/harness"
	"leashedsgd/internal/metrics"
)

func TestParseThreads(t *testing.T) {
	got, err := parseThreads("1,2, 8")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 8 {
		t.Fatalf("parseThreads = %v", got)
	}
	for _, bad := range []string{"", "0", "-2", "a", "1,,2"} {
		if _, err := parseThreads(bad); err == nil {
			t.Errorf("parseThreads(%q) accepted", bad)
		}
	}
}

func TestParseArch(t *testing.T) {
	cases := map[string]harness.Arch{
		"mlp":       harness.SmallMLP,
		"cnn":       harness.SmallCNN,
		"paper-mlp": harness.PaperMLP,
		"paper-cnn": harness.PaperCNN,
	}
	for s, want := range cases {
		got, err := parseArch(s)
		if err != nil || got != want {
			t.Errorf("parseArch(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := parseArch("resnet"); err == nil {
		t.Error("unknown arch accepted")
	}
}

func TestDefaultThreadsShape(t *testing.T) {
	threads := defaultThreads()
	if len(threads) == 0 || threads[0] != 1 {
		t.Fatalf("defaultThreads = %v", threads)
	}
	for i := 1; i < len(threads); i++ {
		if threads[i] != threads[i-1]*2 && i != 1 {
			t.Fatalf("thread ladder not doubling: %v", threads)
		}
		if threads[i] <= threads[i-1] {
			t.Fatalf("thread ladder not increasing: %v", threads)
		}
	}
}

func TestMid(t *testing.T) {
	if mid([]int{1, 2, 4}) != 2 {
		t.Fatal("mid of 3")
	}
	if mid([]int{1, 2, 4, 8}) != 4 {
		t.Fatal("mid of 4")
	}
	if mid([]int{7}) != 7 {
		t.Fatal("mid of 1")
	}
}

// TestCLIDocListsEveryStep holds docs/cli.md's step table to the step
// list: the same names, in the same (paper) order.
func TestCLIDocListsEveryStep(t *testing.T) {
	doc, err := os.ReadFile("../../docs/cli.md")
	if err != nil {
		t.Fatal(err)
	}
	var documented []string
	inTable := false
	for _, line := range strings.Split(string(doc), "\n") {
		switch {
		case strings.HasPrefix(line, "| step |"):
			inTable = true
		case inTable && strings.TrimSpace(line) == "":
			inTable = false
		case inTable && strings.HasPrefix(line, "| `"):
			documented = append(documented, strings.Trim(strings.Split(line, "|")[1], " `"))
		}
	}
	if got := strings.Join(documented, ", "); got != stepNames() {
		t.Fatalf("docs/cli.md step table lists %s; the CLI runs %s", got, stepNames())
	}
}

// TestCLIDocListsEveryAlgo holds the value list of docs/cli.md's `-algo` row
// to the spellings `leashed train` accepts.
func TestCLIDocListsEveryAlgo(t *testing.T) {
	doc, err := os.ReadFile("../../docs/cli.md")
	if err != nil {
		t.Fatal(err)
	}
	_, row, ok := strings.Cut(string(doc), "\n| `-algo` |")
	if !ok {
		t.Fatal("docs/cli.md has no -algo row")
	}
	row, _, _ = strings.Cut(row, "\n")
	cells := strings.Split(row, "|")
	var documented []string
	for _, v := range strings.Split(cells[1], ",") {
		documented = append(documented, strings.Trim(v, " `"))
	}
	slices.Sort(documented)
	if got := strings.Join(documented, ", "); got != algoList() {
		t.Fatalf("docs/cli.md -algo row lists %s; leashed train accepts %s", got, algoList())
	}
}

// TestCLIDocListsEveryFlag holds docs/cli.md's `leashed train` and
// `leashed serve` flag tables to the FlagSets: the same flag names, and a
// default column that parses to each flag's default. Three words stand for
// defaults a literal would misstate: GOMAXPROCS, and off for an empty
// string, false or a zero duration.
func TestCLIDocListsEveryFlag(t *testing.T) {
	doc, err := os.ReadFile("../../docs/cli.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, cmd := range []struct {
		section string
		fs      func() *flag.FlagSet
	}{
		{"### leashed train", func() *flag.FlagSet { return trainFlags(new(trainOpts)) }},
		{"### leashed serve", func() *flag.FlagSet { return serveFlags(new(serveOpts)) }},
	} {
		_, sec, ok := strings.Cut(string(doc), "\n"+cmd.section+"\n")
		if !ok {
			t.Fatalf("docs/cli.md has no %q section", cmd.section)
		}
		sec, _, _ = strings.Cut(sec, "\n#")
		documented := map[string]bool{}
		for _, line := range strings.Split(sec, "\n") {
			if !strings.HasPrefix(line, "| `-") {
				continue
			}
			cells := strings.Split(line, "|")
			name := strings.Trim(cells[1], " `-")
			def := strings.TrimSpace(cells[2])
			documented[name] = true
			fs := cmd.fs()
			f := fs.Lookup(name)
			if f == nil {
				t.Errorf("%s documents -%s, which the command does not define", cmd.section, name)
				continue
			}
			switch {
			case def == "GOMAXPROCS":
				ok = f.DefValue == strconv.Itoa(runtime.GOMAXPROCS(0))
			case def == "off":
				ok = f.DefValue == "" || f.DefValue == "false" || f.DefValue == "0s"
			case strings.HasPrefix(def, "`") && strings.HasSuffix(def, "`"):
				ok = fs.Set(name, strings.Trim(def, "`")) == nil && f.Value.String() == f.DefValue
			default:
				ok = false
			}
			if !ok {
				t.Errorf("%s documents -%s's default as %s; the flag's default is %q", cmd.section, name, def, f.DefValue)
			}
		}
		cmd.fs().VisitAll(func(f *flag.Flag) {
			if !documented[f.Name] {
				t.Errorf("%s does not document -%s", cmd.section, f.Name)
			}
		})
	}
}

// TestParseTrainValidates: `leashed train` rejects a configuration Validate
// refuses, an unknown -arch and a sparse checkpoint at parse time, before any
// dataset exists, and passes its defaults.
func TestParseTrainValidates(t *testing.T) {
	if _, err := parseTrain(nil); err != nil {
		t.Fatalf("default flags rejected: %v", err)
	}
	for _, args := range [][]string{
		{"-eta", "NaN"},
		{"-persistence", "-7"},
		{"-epsilon", "1"},
		{"-arch", "resnet"},
		{"-sparse", "-ckpt", "model.ckpt"},
		{"-algo", "SYNC"},
		{"-algo", "LSH-adaptive"},
	} {
		if _, err := parseTrain(args); err == nil {
			t.Errorf("leashed train %v accepted", args)
		}
	}
	if _, err := parseTrain([]string{"-algo", "SYNC"}); err == nil || !strings.Contains(err.Error(), algoList()) {
		t.Errorf("unknown -algo: error %v does not name the valid algorithms", err)
	}
}

func TestSelectSteps(t *testing.T) {
	all, err := selectSteps("run-all", nil)
	if err != nil {
		t.Fatal(err)
	}
	var order []string
	for _, st := range all {
		order = append(order, st.name)
	}
	if got, want := strings.Join(order, ","), "s1,s1-eta,s2,s3,s4,s5,fig9"; got != want {
		t.Fatalf("run-all order = %s, want %s", got, want)
	}
	if one, err := selectSteps("run", []string{"fig9"}); err != nil || len(one) != 1 || one[0].name != "fig9" {
		t.Fatalf("run fig9 = %v, %v", one, err)
	}
	for _, args := range [][]string{nil, {"s1", "s2"}, {"shards"}, {"autotune"}, {"jointtune"}, {"serveload"}, {"sparse"}, {"chaos"}} {
		_, err := selectSteps("run", args)
		if err == nil || !strings.Contains(err.Error(), stepNames()) {
			t.Errorf("run %v: error %v does not name the valid steps", args, err)
		}
	}
	if _, err := selectSteps("run-all", []string{"s1"}); err == nil {
		t.Error("run-all accepted a step argument")
	}
}

// TestResultJSONNonFinite: a crashed run's result object — losses NaN, +Inf
// or -Inf — encodes, parses back as JSON, says Crashed, and carries each
// non-finite loss as its jsonfloat string.
func TestResultJSONNonFinite(t *testing.T) {
	for _, loss := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		res := &leashedsgd.Result{
			Outcome: leashedsgd.Crashed, InitialLoss: 2.3, FinalLoss: loss,
			Staleness: metrics.NewHist(8), TotalUpdates: 5,
		}
		var buf bytes.Buffer
		if err := writeResultJSON(&buf, resultJSON(leashedsgd.Config{Algo: leashedsgd.Hogwild}, "mlp", false, res)); err != nil {
			t.Fatalf("FinalLoss %v: %v", loss, err)
		}
		var out map[string]any
		if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
			t.Fatalf("FinalLoss %v: output does not parse: %v\n%s", loss, err, buf.Bytes())
		}
		want := strconv.FormatFloat(loss, 'g', -1, 64)
		if out["outcome"] != "Crashed" || out["final_loss"] != want || out["initial_loss"] != 2.3 {
			t.Fatalf("FinalLoss %v: outcome %v, final_loss %v, initial_loss %v; want Crashed, %q, 2.3",
				loss, out["outcome"], out["final_loss"], out["initial_loss"], want)
		}
	}
}
