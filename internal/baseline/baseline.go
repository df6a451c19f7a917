// Package baseline re-implements, on FlexGraph-Go's own substrate, the
// execution strategies of the systems the paper compares against (§7):
//
//   - PyTorch: sparse tensor operations with per-edge message
//     materialisation, and Python-speed (single-threaded) graph operations;
//   - DGL: GAS/SAGA-NN with fused message-passing kernels but no SIMD, and
//     random walks simulated through whole-graph propagation stages (§2.3);
//   - Euler / DistDGL: mini-batch training with k-hop neighborhood
//     expansion per batch (§7.1, §8), Euler with a parallel sampling engine
//     and DistDGL with DGL's walk implementation — the executor expands its
//     own batches and reads their rows from an in-memory store.Local;
//   - Pre+DGL (§7.2): pre-materialised expanded graphs plus GAS operations.
//
// Because the algorithms — not the engineering of the original codebases —
// drive the paper's speedups (message materialisation, walk simulation,
// k-hop expansion blow-up), implementing the same algorithms on a shared
// substrate preserves who wins and where the crossovers fall.
//
// Every executor enforces a memory budget on materialised aggregation
// state, reproducing the paper's OOM entries in Table 2 at laptop scale.
package baseline

import (
	"errors"
	"fmt"

	"repro/internal/dataset"
	"repro/internal/models"
)

// ErrOOM reports that an executor's materialised state exceeded its memory
// budget, the analogue of the paper's OOM table entries.
var ErrOOM = errors.New("baseline: out of memory (materialisation exceeds budget)")

// ErrUnsupported reports that a system cannot express the model at all,
// the analogue of the paper's "X" table entries.
var ErrUnsupported = errors.New("baseline: model not supported by this system")

// ModelKind names the evaluated GNN models.
type ModelKind string

// The three models of the paper's evaluation.
const (
	ModelGCN     ModelKind = "GCN"
	ModelPinSage ModelKind = "PinSage"
	ModelMAGNN   ModelKind = "MAGNN"
)

// Spec describes one training configuration.
type Spec struct {
	Kind    ModelKind
	Hidden  int
	PinSage models.PinSageConfig
	MAGNN   models.MAGNNConfig
	Seed    uint64
	// MemBudget bounds materialised aggregation state in bytes; 0 means
	// unlimited. The harness sets it to a scaled-down analogue of the
	// paper's 512 GB per machine.
	MemBudget int64
}

// DefaultSpec returns the §7 configuration for a model kind.
func DefaultSpec(kind ModelKind) Spec {
	return Spec{
		Kind:    kind,
		Hidden:  16,
		PinSage: models.DefaultPinSageConfig(),
		MAGNN:   models.MAGNNConfig{MaxInstances: 10},
		Seed:    1,
	}
}

// Executor runs one training epoch of a model the way a particular system
// would.
type Executor interface {
	// Name returns the system name as used in the paper's tables.
	Name() string
	// Supports reports whether the system can express the model.
	Supports(kind ModelKind) bool
	// Epoch runs one full training epoch (neighbor selection, forward,
	// backward, update) and returns the training loss. It returns ErrOOM
	// when the strategy's materialised state exceeds spec.MemBudget and
	// ErrUnsupported when the model cannot be expressed.
	Epoch(d *dataset.Dataset, spec Spec) (float32, error)
}

// checkBudget returns ErrOOM if need exceeds a positive budget.
func checkBudget(need, budget int64) error {
	if budget > 0 && need > budget {
		return fmt.Errorf("%w: need %d bytes, budget %d", ErrOOM, need, budget)
	}
	return nil
}
