// Mid-run checkpointing: the monitor snapshots the live parameters on
// cadence and writes rotated, fsync'd checkpoints carrying the resume state
// — cumulative update count, a derived RNG stream seed, the shard count S
// and the persistence bound Tp — so Resume (resume.go) can continue a killed
// run with an exact budget.
package sgd

import (
	"io"
	"time"

	"leashedsgd/internal/checkpoint"
	"leashedsgd/internal/faultinject"
	"leashedsgd/internal/jsonfloat"
)

// CheckpointConfig wires mid-run periodic checkpointing into a run.
type CheckpointConfig struct {
	// Every is the checkpoint cadence, evaluated at monitor ticks (so the
	// effective cadence is max(Every, EvalEvery)). 0 disables.
	Every time.Duration
	// Path is the rotation base path: checkpoints are written as
	// Path.NNNNNN with increasing sequence numbers. Empty disables.
	Path string
	// Keep bounds how many rotated checkpoints are retained
	// (default checkpoint.DefaultKeep).
	Keep int
}

func (c CheckpointConfig) active() bool { return c.Every > 0 && c.Path != "" }

// ckptState is the monitor-owned checkpoint writer: the rotator, a dedicated
// snapshot buffer (the monitor's loss buffer keeps its own), and counters.
type ckptState struct {
	rot    checkpoint.Rotator
	buf    []float64
	wrote  int
	failed int
	last   time.Duration // elapsed time of the last attempt
}

func newCkptState(c CheckpointConfig, d int) *ckptState {
	return &ckptState{
		rot: checkpoint.Rotator{Path: c.Path, Keep: c.Keep},
		buf: make([]float64, d),
	}
}

// consistentSnapshotter is implemented by strategies that can produce a
// cross-chain-consistent snapshot (the Leashed family, whose publication
// store validates per-chain sequence numbers). Checkpoints prefer it over
// the plain monitor snapshot so a resumed run starts from an untorn state;
// strategies without one (lock- or atomic-guarded single vectors) are
// consistent by construction through snapshot.
type consistentSnapshotter interface {
	snapshotConsistent(dst []float64)
}

// writeCheckpoint takes the checkpoint snapshot and saves one rotated file.
// Failures (including injected torn writes) are counted and never disturb
// previously rotated checkpoints — the rotator's failed save removes only
// its own temp file.
func (rt *runCtx) writeCheckpoint(st strategy, loss float64) {
	ck := rt.ckpt
	if cs, ok := st.(consistentSnapshotter); ok {
		cs.snapshotConsistent(ck.buf)
	} else {
		st.snapshot(ck.buf)
	}
	ck.rot.WrapWriter = nil
	if inj := rt.inj; inj != nil {
		if f := inj.Decide(faultinject.CheckpointWrite); f.Kind == faultinject.KindFail {
			// Tear the write at a deterministic, event-varying offset inside
			// the header/meta region.
			tearAt := 8 + int(f.N*13%64)
			ck.rot.WrapWriter = func(w io.Writer) io.Writer {
				return faultinject.FailAfterWriter(w, tearAt)
			}
		}
	}
	if _, err := ck.rot.Save(rt.checkpointMeta(loss), ck.buf); err != nil {
		ck.failed++
	} else {
		ck.wrote++
	}
}

func (rt *runCtx) checkpointMeta(loss float64) checkpoint.Meta {
	cfg := rt.cfg
	cum := rt.prior + rt.updates.Load()
	m := checkpoint.Meta{
		Arch:       rt.prob.describe(),
		Dim:        rt.d,
		Algo:       cfg.Algo.String(),
		FinalLoss:  jsonfloat.Float(loss),
		Updates:    cum,
		SavedAt:    time.Now(),
		Seed:       cfg.Seed,
		RNGState:   resumeSeed(cfg.Seed, cum),
		Shards:     rt.numShards(),
		Tp:         cfg.Persistence,
		MaxUpdates: rt.prior + cfg.MaxUpdates,
	}
	if cfg.MaxUpdates <= 0 {
		m.MaxUpdates = 0
	}
	return m
}

// resumeSeed derives the sample-stream seed a resumed run starts from: a
// splitmix64-style mix of the original seed and the cumulative update count.
// Asynchronous schedules are not replayable interleaving-for-interleaving,
// so resume does not try to rewind per-worker streams to an exact offset —
// it derives a fresh, deterministic stream family positioned by how far the
// lineage has trained, which keeps crash+resume runs reproducible end to end
// for a fixed (seed, kill point) pair.
func resumeSeed(seed uint64, updates int64) uint64 {
	x := seed ^ 0x9E3779B97F4A7C15*uint64(updates+1)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	if x == 0 {
		x = 1
	}
	return x
}
