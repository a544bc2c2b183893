package main

import (
	"fmt"
	"time"

	"leashedsgd/internal/sgd"
)

// Shares of -seconds each phase of the traced pass may measure for. Set-up
// and checks come on top, as in the timed pass.
const (
	shareMicro   = 0.15 // all layer micro-timings together
	sharePlain   = 0.20 // untraced draws (at least one): counters, and the rate the others are compared with
	shareTiming  = 0.15 // a SampleTiming run: Tc, Tu
	shareSeq     = 0.10 // plain single-worker SEQ baseline
	shareArm     = 0.07 // each of ASYNC and HOGWILD! (workloads with arms)
	shareReplica = 0.12 // each of the untraced and the traced replica
	microOps     = 30   // operations layerMicro times
	replicaTurns = 3    // alternations of untraced and traced replica
)

// tracedResult is the -trace 1 pass: the per-layer metrics of one workload.
func tracedResult(s spec, o options) (result, error) {
	ms := newMetricSet(perLayer)
	T := o.seconds
	dur := func(share float64) time.Duration { return time.Duration(share * T * float64(time.Second)) }

	layerMicro(ms, o.seed, dur(shareMicro)/microOps)

	pool := s.setup()
	warmUp(s, pool, o.seed, T, nil)
	plain := timedPass(s, pool, o.seed, sharePlain*T, 1, nil)
	runCounters(ms, s, plain)
	plainRate := median(plain.rates())

	// The arms below want a rate or a timing split, not a result: one run of
	// fixed length each, on the rows of the plain pass's first draw.
	in := s.subset(pool, 1000*o.seed+1)
	arm := func(share float64, mutate func(*sgd.Config)) *pass {
		d := s.run(in, 1000*o.seed+1, func(c *sgd.Config) {
			boxed(dur(share))(c)
			mutate(c)
		})
		return &pass{draws: []*draw{d}}
	}
	timingSplit(ms, s, arm(shareTiming, func(c *sgd.Config) { c.SampleTiming = true }))
	if !s.serve { // a ReadFront needs the Leashed store, so serve_live has no SEQ arm
		if r := median(arm(shareSeq, func(c *sgd.Config) { c.Algo, c.Workers = sgd.Seq, 1 }).rates()); r > 0 {
			ms.set("sgd.seq_updates_per_s", r)
			ms.set("sgd.scaling_eff", plainRate/(float64(s.trainWorkers())*r))
		}
	}
	if s.arms {
		ms.set("sgd.async_updates_per_s", median(arm(shareArm, func(c *sgd.Config) { c.Algo = sgd.Async }).rates()))
		ms.set("sgd.hog_updates_per_s", median(arm(shareArm, func(c *sgd.Config) { c.Algo = sgd.Hogwild }).rates()))
	}

	var spans []span
	if s.serve {
		var err error
		var folds float64
		if spans, folds, err = tracedServe(s, in, 1000*o.seed+1, dur(2*shareReplica)); err != nil {
			return result{}, fmt.Errorf("traced serve client: %w", err)
		}
		ms.set("paramvec.readfront_folds_per_s", folds)
		clientBudget(ms, spans)
	} else {
		// Untraced and traced replica take turns, and the medians are
		// compared: a drift in machine speed hits both alike.
		var bare, traced []float64
		var all replicaResult
		for k := 0; k < replicaTurns; k++ {
			b := runReplica(s, in, 1000*o.seed+1, dur(shareReplica)/replicaTurns, false, 0, 0)
			t := runReplica(s, in, 1000*o.seed+1, dur(shareReplica)/replicaTurns, true, k*(s.trainWorkers()+1), 0)
			bare, traced = append(bare, b.rate()), append(traced, t.rate())
			all.spans = append(all.spans, t.spans...)
			all.attempts += t.attempts
		}
		spans = all.spans
		fmt.Printf("%s: updates/s plain %.1f, replica untraced %.1f, replica traced %.1f\n", s.name, plainRate, median(bare), median(traced))
		ms.set("trace.replica_gap_frac", median(bare)/plainRate-1)
		ms.set("trace.overhead_frac", 1-median(traced)/median(bare))
		iterBudget(ms, all)
	}
	path, err := writeSpans(o.traceDir, s.name, spans)
	if err != nil {
		return result{}, err
	}
	fmt.Printf("%s: %d spans written to %s\n", s.name, len(spans), path)
	if plain.firstError != "" {
		fmt.Printf("%s: first failure: %s\n", s.name, plain.firstError)
	}
	return result{Correct: plain.failed == 0, Attempted: plain.attempted, Failed: plain.failed, Metrics: ms.metrics()}, nil
}

// runCounters turns the Result counters of the plain draws into the paramvec,
// sgd and serve metrics that only a real run can give.
func runCounters(ms *metricSet, s spec, p *pass) {
	var failedCAS, publishes, dropped, allocs, reuses, mixed, reads, staleSum, staleN int64
	var peak int64
	var stale99, starts []float64
	exact, budgeted := 0, 0
	for _, d := range p.draws {
		r := d.res
		if r == nil {
			continue
		}
		failedCAS += r.FailedCAS
		publishes += r.Publishes
		dropped += r.DroppedUpdates
		allocs += r.BufferAllocs
		reuses += r.BufferReuses
		mixed += r.MixedReads
		reads += r.MixedReads + r.ConsistentReads
		peak = max(peak, r.PeakLiveVectors)
		staleSum += int64(r.Staleness.Mean() * float64(r.Staleness.Count()))
		staleN += r.Staleness.Count()
		stale99 = append(stale99, float64(r.Staleness.Quantile(0.99)))
		starts = append(starts, d.startMs)
		if s.budget > 0 {
			budgeted++
			if r.TotalUpdates == s.budget {
				exact++
			}
		}
	}
	ratio := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	ms.set("paramvec.failed_cas_per_publish", ratio(failedCAS, publishes))
	ms.set("paramvec.cas_success_frac", ratio(publishes, publishes+failedCAS))
	ms.set("paramvec.dropped_updates", float64(dropped))
	ms.set("paramvec.peak_live_vectors", float64(peak))
	ms.set("paramvec.reuse_frac", ratio(reuses, reuses+allocs))
	ms.set("paramvec.mixed_read_frac", ratio(mixed, reads))
	ms.set("sgd.staleness_mean", ratio(staleSum, staleN))
	ms.set("sgd.staleness_p99", median(stale99))
	ms.set("sgd.updates_to_eps", median(p.updatesToEps()))
	ms.set("sgd.start_ms", median(starts))
	if budgeted > 0 {
		ms.set("sgd.budget_exact_frac", float64(exact)/float64(budgeted))
	}
	if s.serve {
		serveMetrics(ms, p)
	}
}

// serveMetrics are the client's numbers over every draw of the pass.
func serveMetrics(ms *metricSet, p *pass) {
	var lat []float64
	var window, staleAge, staleUpdates float64
	var over, shed, attempted int
	var requests, batches, consistent int64
	for _, d := range p.draws {
		lat = append(lat, d.lat...)
		window += d.window
		staleAge += d.staleAgeUs
		staleUpdates += d.staleUpdates
		over += d.overLeash
		attempted += d.predicts
		shed += int(d.predStats.Shed)
		requests += d.predStats.Requests
		batches += d.predStats.Batches
		consistent += d.predStats.Consistent + d.predStats.Final
	}
	if len(lat) == 0 {
		return
	}
	p50 := percentile(lat, 50)
	ms.set("serve.predict_p50_us", p50)
	ms.set("serve.predict_p99_us", percentile(lat, 99))
	if pct, ok := highestPercentile(len(lat)); ok {
		ms.set("serve.predict_tail_pct", pct)
		ms.set("serve.predict_tail_us", percentile(lat, pct))
	}
	ms.set("serve.predict_samples", float64(len(lat)))
	ms.set("serve.predict_per_s", float64(len(lat))/window)
	// What a predict costs beyond the snapshot read and the forward pass it
	// is made of: channel hand-off both ways, softmax, stats.
	ms.set("serve.predict_self_us", p50-ms.vals["paramvec.readfront_read_ns"]/1e3-ms.vals["nn.forward_us"])
	ms.set("serve.batch_mean", float64(requests)/float64(max(batches, 1)))
	ms.set("serve.shed_frac", float64(shed)/float64(attempted))
	ms.set("serve.consistent_frac", float64(consistent)/float64(max(requests, 1)))
	ms.set("serve.stale_age_us_mean", staleAge/float64(len(lat)))
	ms.set("serve.leash_violations", float64(over))
	ms.set("paramvec.readfront_stale_updates_mean", staleUpdates/float64(len(lat)))
}

// timingSplit is the Fig. 9 split from SampleTiming draws: mean Tc and Tu per
// iteration, and what the iteration spends outside both.
func timingSplit(ms *metricSet, s spec, p *pass) {
	var tc, tu time.Duration
	var n int
	var workerTime float64
	var updates int64
	for _, d := range p.draws {
		if d.res == nil || d.res.Tc.Count() == 0 {
			continue
		}
		tc += d.res.Tc.Mean() * time.Duration(d.res.Tc.Count())
		tu += d.res.Tu.Mean() * time.Duration(d.res.Tu.Count())
		n += d.res.Tc.Count()
		workerTime += float64(s.trainWorkers()) * float64(d.wall)
		updates += d.res.TotalUpdates
	}
	if n == 0 || updates == 0 {
		return
	}
	tcUs, tuUs := float64(tc)/float64(n)/1e3, float64(tu)/float64(n)/1e3
	iterUs := workerTime / float64(updates) / 1e3
	ms.set("sgd.tc_mean_us", tcUs)
	ms.set("sgd.tu_mean_us", tuUs)
	ms.set("sgd.tu_over_tc", tuUs/tcUs)
	ms.set("sgd.iter_other_us", iterUs-tcUs-tuUs) // loop, budget, lease, sampling, and cores lost to the monitor
	ms.set("sgd.covered_frac", (tcUs+tuUs)/iterUs)
}

// iterBudget is the replica's per-layer budget: mean self time of each layer
// per iteration, and the share of the iterations' time the layers cover.
func iterBudget(ms *metricSet, r replicaResult) {
	self := selfTimes(r.spans)
	dur, count := totalByName(r.spans)
	iters := float64(max(count["iter"], 1))
	us := func(names ...string) float64 {
		var sum int64
		for _, n := range names {
			sum += self[n]
		}
		return float64(sum) / iters / 1e3
	}
	ms.set("trace.cover_frac", 1-float64(self["iter"])/float64(max(dur["iter"], 1)))
	ms.set("trace.iter_us", float64(dur["iter"])/iters/1e3)
	ms.set("trace.lease_us", us("paramvec.lease_acquire", "paramvec.lease_release"))
	ms.set("trace.sample_us", us("data.sample"))
	ms.set("trace.grad_us", us("nn.batch_loss_grad", "sparse.grad"))
	ms.set("trace.publish_us", float64(dur["paramvec.publish"])/iters/1e3)
	ms.set("trace.publish_attempts_mean", float64(r.attempts)/iters)
	if n := count["monitor.tick"]; n > 0 {
		ms.set("trace.monitor_tick_ms", float64(dur["monitor.tick"])/float64(n)/1e6)
	}
}

// clientBudget is serve_live's budget per client round: the predict through
// the server against the direct read and forward pass it is made of.
func clientBudget(ms *metricSet, spans []span) {
	self := selfTimes(spans)
	dur, count := totalByName(spans)
	rounds := float64(max(count["client.round"], 1))
	ms.set("trace.cover_frac", 1-float64(self["client.round"])/float64(max(dur["client.round"], 1)))
	ms.set("trace.iter_us", float64(dur["client.round"])/rounds/1e3)
	ms.set("trace.lease_us", float64(self["paramvec.readfront_read"])/rounds/1e3)
	ms.set("trace.grad_us", float64(self["nn.forward"])/rounds/1e3)
	// The traced predict against the untraced median: what tracing costs.
	var pred []float64
	for _, s := range spans {
		if s.Name == "serve.predict" {
			pred = append(pred, float64(s.End-s.Start)/1e3)
		}
	}
	if p50 := ms.vals["serve.predict_p50_us"]; p50 > 0 && len(pred) > 0 {
		ms.set("trace.overhead_frac", median(pred)/p50-1)
	}
}
