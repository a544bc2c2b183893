package sgd

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
	"time"

	"leashedsgd/internal/checkpoint"
	"leashedsgd/internal/faultinject"
)

// pacedAfter is how many worker iterations of a startCheckpointed leg run at
// full speed before every further one stalls.
const pacedAfter = 500

// startCheckpointed launches a run with aggressive checkpoint cadence and
// blocks until at least minCkpts rotated checkpoints exist, then stops it.
// Returns the first leg's Result.
//
// The leg is killed by this helper, never by its budget: after pacedAfter
// iterations every worker iteration stalls 1 ms at the WorkerIter fault
// site, so the rest of the budget cannot be spent faster than Workers
// updates per millisecond — seconds of run, against the few milliseconds the
// checkpoints need — however fast the host or the publish path is. The
// injector (the pacing rule plus the caller's extra rules) is armed on this
// leg only; cfg is a copy, so the caller's resumed leg runs unpaced.
func startCheckpointed(t *testing.T, cfg Config, minCkpts int, extra ...faultinject.Rule) *Result {
	t.Helper()
	if paced := time.Duration(cfg.MaxUpdates-pacedAfter) * time.Millisecond / time.Duration(cfg.Workers); paced < 2*time.Second {
		t.Fatalf("budget %d leaves only %v of paced run", cfg.MaxUpdates, paced)
	}
	cfg.FaultInjector = faultinject.New(5, append(extra, faultinject.Rule{
		Site: faultinject.WorkerIter, Kind: faultinject.KindStall,
		Prob: 1, After: pacedAfter, Stall: time.Millisecond,
	})...)
	ds := tinyDataset()
	r, err := Start(cfg, tinyNet(ds), ds)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(20 * time.Second)
	// Wait for minCkpts files AND for the newest to hold at least one
	// update: on a loaded host the 1 ms checkpointer can fire before any
	// worker has published, and a kill right after that checkpoint resumes
	// from 0 — legal, but not the mid-flight kill these tests are about.
	ready := func() bool {
		if len(checkpoint.Candidates(cfg.Checkpoint.Path)) < minCkpts {
			return false
		}
		meta, _, _, err := checkpoint.LoadNewest(cfg.Checkpoint.Path)
		return err == nil && meta.Updates > 0
	}
	for !ready() {
		select {
		case <-r.Done():
			t.Fatalf("run finished (budget %d) before writing %d checkpoints", cfg.MaxUpdates, minCkpts)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("no %d checkpoints after 20s", minCkpts)
		}
		time.Sleep(time.Millisecond)
	}
	r.Stop()
	res := r.Wait()
	if res.TotalUpdates >= cfg.MaxUpdates {
		t.Fatalf("paced leg spent its whole budget (%d) before the kill", res.TotalUpdates)
	}
	return res
}

func ckptConfig(t *testing.T, algo Algorithm, workers int) Config {
	cfg := testConfig(algo, workers)
	cfg.EpsilonFrac = 0 // run to budget, not to a loss target
	cfg.MaxUpdates = 40000
	if testing.Short() {
		// The race-instrumented CI legs run -short: keep the lineage budget
		// completable well inside MaxTime under the detector's slowdown, or
		// the exact-budget assertion races the clock instead of the code.
		cfg.MaxUpdates = 6000
	}
	cfg.MaxTime = 60 * time.Second
	cfg.EvalEvery = time.Millisecond
	cfg.Checkpoint = CheckpointConfig{
		Every: time.Millisecond,
		Path:  filepath.Join(t.TempDir(), "ckpt"),
	}
	return cfg
}

// TestKillResumeExactBudget is the crash/resume equivalence contract: a run
// killed mid-flight and resumed from its newest checkpoint completes EXACTLY
// the original budget — ResumedFrom + TotalUpdates == MaxUpdates — across
// one arm per publish protocol (lock, component-atomic, LAU-SPC), the shards
// arm, and a Leashed arm whose killed leg
// also takes worker panics and failed publish attempts.
func TestKillResumeExactBudget(t *testing.T) {
	cases := []struct {
		name  string
		mut   func(*Config)
		extra []faultinject.Rule // fault rules armed on the killed leg
	}{
		{"leashed-s1", func(c *Config) {}, nil},
		{"leashed-s4", func(c *Config) { c.Shards = 4 }, nil},
		{"hogwild", func(c *Config) { c.Algo = Hogwild }, nil},
		{"async", func(c *Config) { c.Algo = Async }, nil},
		{"leashed-faulted", func(c *Config) {}, []faultinject.Rule{
			{Site: faultinject.WorkerIter, Kind: faultinject.KindPanic, Prob: 0.01},
			{Site: faultinject.Publish, Kind: faultinject.KindFail, Prob: 0.01},
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			cfg := ckptConfig(t, Leashed, 2)
			tc.mut(&cfg)
			res1 := startCheckpointed(t, cfg, 1, tc.extra...)
			if tc.extra != nil {
				t.Logf("killed leg: %d updates, %d worker faults, %d failed CAS",
					res1.TotalUpdates, len(res1.WorkerFaults), res1.FailedCAS)
			}
			if res1.Checkpoints == 0 {
				t.Fatalf("first leg reported no checkpoints (%d files on disk)",
					len(checkpoint.Candidates(cfg.Checkpoint.Path)))
			}

			ds := tinyDataset()
			net := tinyNet(ds)
			_, resumed, _, err := checkpoint.LoadNewest(cfg.Checkpoint.Path)
			if err != nil {
				t.Fatal(err)
			}
			r2, err := Resume(cfg, net, ds)
			if err != nil {
				t.Fatal(err)
			}
			res2 := r2.Wait()
			if res2.ResumedFrom <= 0 {
				t.Fatalf("ResumedFrom = %d, want > 0", res2.ResumedFrom)
			}
			// The resumed leg's InitialLoss is the loss of the checkpointed
			// parameters, taken before its workers start.
			if want := net.Loss(resumed, ds, nil, net.NewWorkspace()); res2.InitialLoss != want {
				t.Fatalf("resumed InitialLoss = %v, loss of the checkpoint = %v", res2.InitialLoss, want)
			}
			if res2.ResumedFrom > res1.TotalUpdates {
				t.Fatalf("resumed from %d updates but first leg only applied %d",
					res2.ResumedFrom, res1.TotalUpdates)
			}
			if got := res2.ResumedFrom + res2.TotalUpdates; got != cfg.MaxUpdates {
				t.Fatalf("lineage applied %d updates (%d resumed + %d), want exactly %d",
					got, res2.ResumedFrom, res2.TotalUpdates, cfg.MaxUpdates)
			}
			// Loss envelope: the resumed leg continues training, it does not
			// restart or diverge — a full-budget lineage on this dataset ends
			// well below the initialization plateau.
			if res2.Outcome == Crashed {
				t.Fatalf("resumed leg crashed (loss %v)", res2.FinalLoss)
			}
			if res2.FinalLoss != res2.FinalLoss || res2.FinalLoss >= res1.InitialLoss {
				t.Fatalf("resumed leg final loss %v not below the fresh-init loss %v",
					res2.FinalLoss, res1.InitialLoss)
			}
		})
	}
}

// TestInjectedTornCheckpointWrites makes the first two checkpoint writes tear
// mid-file via the injector: the failures are counted, they leave no torn
// file behind (a torn temp never becomes a candidate), later writes succeed,
// and the lineage still resumes with an exact budget.
func TestInjectedTornCheckpointWrites(t *testing.T) {
	cfg := ckptConfig(t, Leashed, 2)
	res1 := startCheckpointed(t, cfg, 2, faultinject.Rule{
		Site: faultinject.CheckpointWrite, Kind: faultinject.KindFail,
		Prob: 1, Limit: 2,
	})
	if res1.CheckpointErrors != 2 {
		t.Fatalf("CheckpointErrors = %d, want the 2 injected torn writes", res1.CheckpointErrors)
	}
	if res1.Checkpoints < 2 {
		t.Fatalf("Checkpoints = %d, want >= 2 successful writes after the burst", res1.Checkpoints)
	}
	for _, c := range checkpoint.Candidates(cfg.Checkpoint.Path) {
		if _, _, err := checkpoint.Load(c.File); err != nil {
			t.Fatalf("torn write leaked a corrupt candidate %s: %v", c.File, err)
		}
	}

	ds := tinyDataset()
	r2, err := Resume(cfg, tinyNet(ds), ds)
	if err != nil {
		t.Fatal(err)
	}
	res2 := r2.Wait()
	if got := res2.ResumedFrom + res2.TotalUpdates; got != cfg.MaxUpdates {
		t.Fatalf("lineage applied %d updates, want exactly %d", got, cfg.MaxUpdates)
	}
}

// TestResumeSkipsCorruptNewest kills a run after several checkpoints, then
// corrupts the newest file — the torn-write crash case — and resumes: the
// loader must fall back to the previous valid checkpoint, not fail.
func TestResumeSkipsCorruptNewest(t *testing.T) {
	cfg := ckptConfig(t, Leashed, 2)
	startCheckpointed(t, cfg, 2)

	cands := checkpoint.Candidates(cfg.Checkpoint.Path)
	if len(cands) < 2 {
		t.Fatalf("need >= 2 checkpoints, have %d", len(cands))
	}
	// Corrupt the newest mid-body: the CRC must reject it.
	raw, err := os.ReadFile(cands[0].File)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(cands[0].File, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	wantMeta, _, err := checkpoint.Load(cands[1].File)
	if err != nil {
		t.Fatalf("second-newest checkpoint unreadable: %v", err)
	}

	ds := tinyDataset()
	r2, err := Resume(cfg, tinyNet(ds), ds)
	if err != nil {
		t.Fatal(err)
	}
	res2 := r2.Wait()
	if res2.ResumedFrom != wantMeta.Updates {
		t.Fatalf("ResumedFrom = %d, want the second-newest checkpoint's %d",
			res2.ResumedFrom, wantMeta.Updates)
	}
	if got := res2.ResumedFrom + res2.TotalUpdates; got != cfg.MaxUpdates {
		t.Fatalf("lineage applied %d updates, want exactly %d", got, cfg.MaxUpdates)
	}
}

// TestResumeLegacyLadderPositions resumes from a checkpoint written by a run
// that had an (S, Tp) controller: its meta carries "auto_tune":true, the
// controller's (S=4, Tp=2) and, older still, the ladder positions s_pos /
// tp_pos. The file loads (the decoder ignores the retired keys), and the
// resumed leg runs at the caller's configured (Shards, Persistence) — not
// the checkpoint's — and completes the original budget exactly.
func TestResumeLegacyLadderPositions(t *testing.T) {
	ds := tinyDataset()
	net := tinyNet(ds)
	cfg := ckptConfig(t, Leashed, 2)
	cfg.Shards = 2
	cfg.Persistence = 8

	d := net.ParamCount()
	metaJSON := fmt.Sprintf(`{"arch":"dense-net","dim":%d,"algo":"LSH","updates":100,`+
		`"saved_at":"2026-01-02T03:04:05Z","seed":%d,"rng_state":12345,"shards":4,"tp":2,`+
		`"auto_tune":true,"s_pos":2,"tp_pos":1,"max_updates":%d}`, d, cfg.Seed, cfg.MaxUpdates)
	raw := binary.LittleEndian.AppendUint32([]byte("LSHSGD\x00\x01"), uint32(len(metaJSON)))
	raw = append(raw, metaJSON...)
	raw = append(raw, make([]byte, 8*d)...) // θ = 0
	raw = binary.LittleEndian.AppendUint32(raw, crc32.ChecksumIEEE(raw))
	if err := os.WriteFile(cfg.Checkpoint.Path+".000001", raw, 0o644); err != nil {
		t.Fatal(err)
	}
	meta, _, _, err := checkpoint.LoadNewest(cfg.Checkpoint.Path)
	if err != nil {
		t.Fatalf("old checkpoint does not load: %v", err)
	}
	if meta.Updates != 100 || meta.Shards != 4 || meta.Tp != 2 {
		t.Fatalf("old meta read as %+v", meta)
	}

	r, err := Resume(cfg, net, ds)
	if err != nil {
		t.Fatal(err)
	}
	res := r.Wait()
	if res.ResumedFrom != 100 || res.ResumedFrom+res.TotalUpdates != cfg.MaxUpdates {
		t.Fatalf("lineage resumed from %d and applied %d, want 100 and %d in all",
			res.ResumedFrom, res.ResumedFrom+res.TotalUpdates, cfg.MaxUpdates)
	}
	if res.Shards != cfg.Shards {
		t.Fatalf("resumed leg ran at S=%d, want the configured %d", res.Shards, cfg.Shards)
	}
	if res.Checkpoints == 0 {
		t.Fatal("resumed leg wrote no checkpoint")
	}
	meta, _, _, err = checkpoint.LoadNewest(cfg.Checkpoint.Path)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Shards != cfg.Shards || meta.Tp != cfg.Persistence {
		t.Fatalf("resumed leg checkpointed (S=%d, Tp=%d), want the configured (%d, %d)",
			meta.Shards, meta.Tp, cfg.Shards, cfg.Persistence)
	}
}

// TestResumeErrors pins the failure modes: no checkpoint path, nothing on
// disk, dimension mismatch, and an already-exhausted budget.
func TestResumeErrors(t *testing.T) {
	ds := tinyDataset()
	net := tinyNet(ds)
	base := testConfig(Leashed, 1)

	if _, err := Resume(base, net, ds); err == nil {
		t.Fatal("Resume without Checkpoint.Path should fail")
	}

	cfg := base
	cfg.Checkpoint = CheckpointConfig{Every: time.Millisecond, Path: filepath.Join(t.TempDir(), "none")}
	if _, err := Resume(cfg, net, ds); err == nil {
		t.Fatal("Resume with no checkpoint on disk should fail")
	}

	cfg.Checkpoint.Path = filepath.Join(t.TempDir(), "dim")
	if err := checkpoint.Save(cfg.Checkpoint.Path+".000001",
		checkpoint.Meta{Arch: "x", Dim: 3, Updates: 1}, []float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := Resume(cfg, net, ds); err == nil {
		t.Fatal("Resume with mismatched dimension should fail")
	}

	cfg.Checkpoint.Path = filepath.Join(t.TempDir(), "spent")
	cfg.MaxUpdates = 100
	d := net.ParamCount()
	if err := checkpoint.Save(cfg.Checkpoint.Path+".000001",
		checkpoint.Meta{Arch: "x", Dim: d, Updates: 100}, make([]float64, d)); err != nil {
		t.Fatal(err)
	}
	if _, err := Resume(cfg, net, ds); err == nil {
		t.Fatal("Resume with the budget already spent should fail")
	}
}

// BenchmarkResumeFromCheckpoint measures the cold-start path: load the newest
// checkpoint, rebuild the runtime and complete a 1-update leg.
func BenchmarkResumeFromCheckpoint(b *testing.B) {
	ds := tinyDataset()
	net := tinyNet(ds)
	cfg := testConfig(Leashed, 1)
	cfg.EpsilonFrac = 0
	cfg.MaxUpdates = 1000
	cfg.EvalEvery = time.Millisecond
	cfg.Checkpoint = CheckpointConfig{Every: time.Hour, Path: filepath.Join(b.TempDir(), "ckpt")}

	d := net.ParamCount()
	meta := checkpoint.Meta{Arch: "dense-net", Dim: d, Algo: "LSH", Updates: 999, MaxUpdates: 1000}
	if err := checkpoint.Save(cfg.Checkpoint.Path+".000001", meta, make([]float64, d)); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := Resume(cfg, net, ds)
		if err != nil {
			b.Fatal(err)
		}
		if res := r.Wait(); res.ResumedFrom+res.TotalUpdates != 1000 {
			b.Fatalf("lineage applied %d+%d, want 1000", res.ResumedFrom, res.TotalUpdates)
		}
	}
}
