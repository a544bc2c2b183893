// Sparse entry points: the same unified worker loop, strategies and
// measurement contract as Run/Start, driving sparse logistic regression with
// first-class CSR gradient steps. The only representation-specific code is
// the validation here and the sparseProblem in problem.go — every algorithm
// (SEQ, ASYNC, HOGWILD!, Leashed-SGD at any shard count) runs
// sparse workloads without a per-algorithm fork.
package sgd

import (
	"fmt"

	"leashedsgd/internal/sparse"
)

// StartSparse validates the sparse configuration and launches a live run over
// a sparse logistic-regression problem. Gradients flow through the pipeline
// in index/value form: Leashed chains the step has no mass in are skipped
// outright (scatter-publish), HOGWILD! atomically adds only the step's
// nonzeros, and the lock-based algorithms apply sparse in-place updates.
//
// Sparse-specific defaults and restrictions:
//
//   - BatchSize defaults to 1 (not the dense default): a sparse step's
//     scatter-publish wins exactly when it hits few chains, and the chains
//     hit grow like min(S, B·NNZ) — per-example steps keep the publish
//     footprint minimal, which is also the regime HOGWILD!'s sparsity
//     analysis assumes.
//   - Momentum is rejected: a velocity accumulator is dense by nature, so it
//     would densify every step and silently cancel the sparse win.
func StartSparse(cfg Config, ds *sparse.Dataset) (*Running, error) {
	if ds == nil {
		return nil, fmt.Errorf("sgd: nil sparse dataset")
	}
	if err := ds.Validate(); err != nil {
		return nil, err
	}
	if cfg.Momentum != 0 {
		return nil, fmt.Errorf("sgd: momentum is not supported for sparse runs (it would densify every step)")
	}
	if cfg.BatchSize == 0 {
		cfg.BatchSize = 1
	}
	return launch(cfg, newSparseProblem(ds), nil)
}

// RunSparse is StartSparse + Wait: the blocking sparse counterpart of Run.
func RunSparse(cfg Config, ds *sparse.Dataset) (*Result, error) {
	r, err := StartSparse(cfg, ds)
	if err != nil {
		return nil, err
	}
	return r.Wait(), nil
}
