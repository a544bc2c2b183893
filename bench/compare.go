package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

// contract is the part of BENCHMARK.json compare needs: each end-to-end
// metric's direction and the share of the old median it may worsen by.
type contract struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// readContract finds BENCHMARK.json at the repository root: the directory
// above this package, whether the binary was started there or in bench/.
func readContract() (*contract, error) {
	var b []byte
	var err error
	for _, p := range []string{"BENCHMARK.json", filepath.Join("..", "BENCHMARK.json")} {
		if b, err = os.ReadFile(p); err == nil {
			break
		}
	}
	if err != nil {
		return nil, fmt.Errorf("read BENCHMARK.json: %w", err)
	}
	var c contract
	if err := json.Unmarshal(b, &c); err != nil {
		return nil, fmt.Errorf("parse BENCHMARK.json: %w", err)
	}
	return &c, nil
}

type verdict string

const (
	same       verdict = "same"
	better     verdict = "better"
	worse      verdict = "WORSE"
	unresolved verdict = "unresolved"
)

// judge compares one workload × metric between two sets. A change beyond the
// bound is only believed when both sets' own quartile spread is within the
// bound; otherwise the row is unresolved, not unchanged.
func judge(old, cur []float64, lowerIsBetter bool, bound float64) (v verdict, change float64) {
	change = median(cur)/median(old) - 1 // share of the old median
	worsening := change
	if !lowerIsBetter {
		worsening = -change
	}
	switch {
	case max(quartileSpread(old), quartileSpread(cur)) > bound:
		return unresolved, change
	case worsening > bound:
		return worse, change
	case worsening < -bound:
		return better, change
	}
	return same, change
}

// compareSets prints one row per workload × end-to-end metric and returns the
// number of rows that are worse, counting a higher failed fraction as one.
func compareSets(c *contract, old, cur *set) (bad int) {
	fmt.Printf("%-16s %-16s %12s %12s %8s %8s %8s  %s\n", "workload", "metric", "old median", "new median", "change", "spread", "bound", "verdict")
	for _, w := range workloads {
		if len(old.values(w.name, "setup_s")) == 0 || len(cur.values(w.name, "setup_s")) == 0 {
			continue // not in both sets
		}
		for _, m := range c.EndToEnd {
			ov, nv := old.values(w.name, m.Name), cur.values(w.name, m.Name)
			if len(ov) == 0 || len(nv) == 0 {
				continue
			}
			v, change := judge(ov, nv, m.Better == "lower", m.Bound)
			if v == worse {
				bad++
			}
			fmt.Printf("%-16s %-16s %12.5g %12.5g %+7.1f%% %7.1f%% %7.0f%%  %s\n", w.name, m.Name, median(ov), median(nv),
				100*change, 100*max(quartileSpread(ov), quartileSpread(nv)), 100*m.Bound, v)
		}
		of, nf := old.failedFrac(w.name), cur.failedFrac(w.name)
		v := same
		if nf > of {
			v = worse
			bad++
		}
		fmt.Printf("%-16s %-16s %12.5g %12.5g %8s %8s %8s  %s\n", w.name, "failed_frac", of, nf, "", "", "any", v)
	}
	return bad
}

var errWorse = errors.New("at least one row is worse beyond its bound")

func cmdCompare(args []string) error {
	if len(args) != 2 {
		return errors.New("usage: bench compare old.json new.json")
	}
	c, err := readContract()
	if err != nil {
		return err
	}
	old, err := readSet(args[0])
	if err != nil {
		return err
	}
	cur, err := readSet(args[1])
	if err != nil {
		return err
	}
	if compareSets(c, old, cur) > 0 {
		return errWorse
	}
	return nil
}

// cmdRepeat runs every workload -sets times with the same code and seeds and
// holds the benchmark to its own rule: no set may be worse than the one
// before it, and every spread must be within its bound.
func cmdRepeat(args []string) error {
	sets := 2
	o, err := parseRunFlags("repeat", args, func(fs *flag.FlagSet) { fs.IntVar(&sets, "sets", sets, "sets to run") })
	if err != nil {
		return err
	}
	if o.workload != "" {
		return errors.New("repeat runs every workload; drop -workload")
	}
	c, err := readContract()
	if err != nil {
		return err
	}
	var prev *set
	bad := 0
	for i := 1; i <= sets; i++ {
		cur, err := runAll(o, filepath.Join(o.traceDir, fmt.Sprintf("repeat-%d-set%d.json", o.seed, i)))
		if err != nil {
			return err
		}
		if prev != nil {
			fmt.Printf("\nset %d against set %d\n", i, i-1)
			bad += compareSets(c, prev, cur)
			bad += unsteady(c, prev, cur)
		}
		prev = cur
	}
	if bad > 0 {
		return fmt.Errorf("the benchmark does not repeat: %d rows worse or unsteady", bad)
	}
	return nil
}

// unsteady counts the workload × metric pairs whose spread within either set
// exceeds the bound (setup_s is exempt, as in the driver's acceptance rule).
func unsteady(c *contract, sets ...*set) (bad int) {
	for _, w := range workloads {
		for _, m := range c.EndToEnd {
			if m.Name == "setup_s" {
				continue
			}
			for _, st := range sets {
				if v := st.values(w.name, m.Name); len(v) >= 4 && quartileSpread(v) > m.Bound {
					fmt.Printf("%-16s %-16s spread %.1f%% exceeds bound %.0f%%\n", w.name, m.Name, 100*quartileSpread(v), 100*m.Bound)
					bad++
					break
				}
			}
		}
	}
	return bad
}
