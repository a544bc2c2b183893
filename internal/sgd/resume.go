// Resume: restart a killed run from its newest valid rotated checkpoint.
// The caller passes the SAME Config the original run was started with;
// Resume loads the checkpoint lineage (skipping a corrupt newest file),
// subtracts the updates already spent from the budget — so crash + resume
// applies exactly MaxUpdates total — and reseeds the sample streams from the
// checkpointed RNG state. The continuation runs at the caller's configured
// (Shards, Persistence); the checkpoint's S and Tp are a record, not an
// override.
package sgd

import (
	"fmt"

	"leashedsgd/internal/checkpoint"
	"leashedsgd/internal/data"
	"leashedsgd/internal/nn"
)

// Resume validates like Start, then continues the dense run recorded under
// cfg.Checkpoint.Path. The returned Result accounts the whole lineage:
// ResumedFrom is the checkpoint's cumulative update count and
// ResumedFrom + TotalUpdates == the original MaxUpdates when the resumed leg
// runs to budget exhaustion.
func Resume(cfg Config, net *nn.Network, ds *data.Dataset) (*Running, error) {
	prob, err := newDenseProblem(net, ds)
	if err != nil {
		return nil, err
	}
	cfg, rs, err := loadResume(cfg, net.ParamCount())
	if err != nil {
		return nil, err
	}
	return launch(cfg, prob, rs)
}

// loadResume loads the newest valid checkpoint under cfg.Checkpoint.Path and
// rewrites cfg for the continuation leg: remaining budget and derived seed.
func loadResume(cfg Config, dim int) (Config, *resumeState, error) {
	if cfg.Checkpoint.Path == "" {
		return cfg, nil, fmt.Errorf("sgd: Resume requires Checkpoint.Path")
	}
	meta, params, file, err := checkpoint.LoadNewest(cfg.Checkpoint.Path)
	if err != nil {
		return cfg, nil, fmt.Errorf("sgd: no resumable checkpoint under %s: %w", cfg.Checkpoint.Path, err)
	}
	if meta.Dim != dim {
		return cfg, nil, fmt.Errorf("sgd: checkpoint %s has dim %d, model has %d", file, meta.Dim, dim)
	}
	prior := meta.Updates
	if prior < 0 {
		return cfg, nil, fmt.Errorf("sgd: checkpoint %s has negative update count %d", file, prior)
	}
	if cfg.MaxUpdates > 0 {
		if prior >= cfg.MaxUpdates {
			return cfg, nil, fmt.Errorf("sgd: checkpoint %s already has %d updates of a %d budget — nothing to resume",
				file, prior, cfg.MaxUpdates)
		}
		cfg.MaxUpdates -= prior
	}
	// The sample streams continue from a seed derived at save time from
	// (original seed, cumulative updates): deterministic for a fixed kill
	// point, never a replay of the already-consumed prefix.
	if meta.RNGState != 0 {
		cfg.Seed = meta.RNGState
	}
	return cfg, &resumeState{params: params, prior: prior}, nil
}
