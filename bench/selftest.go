package main

import (
	"errors"
	"fmt"
	"math"
	"time"

	"leashedsgd/internal/faultinject"
	"leashedsgd/internal/sgd"
)

// plantedStall is slept in every worker iteration by the self-test. A
// dense_publish iteration takes ~0.75 ms per worker, so the stall divides the
// update rate by three or more, on a quiet host and on a slowed one. (The
// 200 us first planned cost 25% on a quiet host, which is the metric's bound
// and so no test; 500 us cost 55% there but 23% while the host ran slow.)
const plantedStall = 2 * time.Millisecond

// cmdSelftest shows the benchmark can fail without touching the program: a
// stall planted through the program's own fault injector must make compare
// flag updates_per_s on dense_publish as worse, and the same stall planted in
// the replica loop must show up as that much more self time of the iter span.
func cmdSelftest(args []string) error {
	if len(args) > 0 {
		return errors.New("usage: bench selftest")
	}
	c, err := readContract()
	if err != nil {
		return err
	}
	s, _ := findWorkload("dense_publish")
	// Shortened: draws of a fifth of the budget, so the loss levels of the
	// full draw do not apply.
	s.budget, s.eps, s.lossMax = s.budget/5, 0.5, math.Inf(1)
	const passes, seconds = 4, 2
	pool := s.setup()
	warmUp(s, pool, 1, seconds, nil)
	var bound float64
	for _, m := range c.EndToEnd {
		if m.Name == "updates_per_s" {
			bound = m.Bound
		}
	}
	fmt.Printf("planting a %v stall in every worker iteration (faultinject.WorkerIter)\n", plantedStall)
	v, change := unresolved, 0.0
	// Unresolved means one side's own passes disagreed by more than the bound
	// (a slow stretch of the host): that is no verdict, so measure again.
	for attempt := 1; attempt <= 3 && v == unresolved; attempt++ {
		sets := map[bool]*set{false: {}, true: {}}
		for k := uint64(1); k <= passes; k++ { // the two sides take turns, so a slow minute hits both
			for _, stalled := range []bool{false, true} {
				var mutate func(*sgd.Config)
				if stalled {
					mutate = func(cfg *sgd.Config) {
						cfg.FaultInjector = faultinject.New(k, faultinject.Rule{
							Site: faultinject.WorkerIter, Kind: faultinject.KindStall, Prob: 1, Stall: plantedStall})
					}
				}
				res := timedPass(s, pool, k, seconds, 1, mutate).endToEnd()
				delete(res.Metrics, "peak_rss_mb") // a high-water mark of this one process: it cannot fall from one pass to the next
				sets[stalled].Runs = append(sets[stalled].Runs, setRun{Workload: s.name, Seed: k, result: res})
			}
		}
		compareSets(c, sets[false], sets[true])
		v, change = judge(sets[false].values(s.name, "updates_per_s"), sets[true].values(s.name, "updates_per_s"), false, bound)
	}
	if v != worse {
		return fmt.Errorf("selftest: compare judged the planted stall %q (%+.1f%%), want %q", v, 100*change, worse)
	}

	in := s.subset(pool, 1)
	base := runReplica(s, in, 1, 1500*time.Millisecond, true, 0, 0)
	slow := runReplica(s, in, 1, 1500*time.Millisecond, true, 0, plantedStall)
	grew := iterSelfUs(slow) - iterSelfUs(base)
	fmt.Printf("replica iter self time: %.1f us -> %.1f us per iteration (+%.1f us for a %v sleep)\n",
		iterSelfUs(base), iterSelfUs(slow), grew, plantedStall)
	// time.Sleep overshoots by the timer slack (0.3 to 0.8 ms on this VM),
	// never undershoots.
	if want := float64(plantedStall) / 1e3; grew < 0.9*want || grew > want+2000 {
		return fmt.Errorf("selftest: traced iter self time grew by %.1f us, want about %.0f us", grew, want)
	}
	fmt.Println("selftest ok: the planted regression fails compare and shows in the trace")
	return nil
}

// iterSelfUs is the mean self time of the iter span per iteration.
func iterSelfUs(r replicaResult) float64 {
	_, count := totalByName(r.spans)
	return float64(selfTimes(r.spans)["iter"]) / float64(max(count["iter"], 1)) / 1e3
}
