#ifndef IOLAP_ALLOC_POLICY_H_
#define IOLAP_ALLOC_POLICY_H_

#include <cstdint>
#include <string>

#include "model/records.h"

namespace iolap {

/// Allocation policies from the template of Section 3.2. Each policy picks
/// the *allocation quantity* δ(c) seeded into every cell; the iterative
/// Γ/Δ update equations are shared.
enum class PolicyKind {
  /// EM-Count: δ(c) = number of precise facts mapping to c.
  kCount,
  /// EM-Measure: δ(c) = sum of the measure over precise facts in c.
  kMeasure,
  /// Uniform: δ(c) = 1 and zero EM iterations, yielding
  /// p_{c,r} = 1 / |reg(r) ∩ C|.
  kUniform,
};

/// Which cells form the cell summary table C (Section 3.3 lists the choices
/// the companion papers used).
enum class CellDomain {
  /// Cells mapped to by at least one precise fact (the default in the
  /// paper's experiments; keeps δ(c) > 0 everywhere for kCount).
  kPreciseCells,
  /// The union of the precise cells and every cell inside some imprecise
  /// fact's region. Supports the Uniform policy exactly; can blow up for
  /// very wide regions, so the preprocessor enforces a budget.
  kImpreciseUnion,
};

/// Which allocation algorithm evaluates the update equations.
enum class AlgorithmKind {
  kBasic,        // in-memory reference (Algorithm 1)
  kIndependent,  // per-chain re-sorts (Algorithm 3)
  kBlock,        // fixed order + partition windows (Algorithm 4)
  kTransitive,   // connected components (Algorithm 5)
};

inline const char* AlgorithmName(AlgorithmKind a) {
  switch (a) {
    case AlgorithmKind::kBasic:
      return "Basic";
    case AlgorithmKind::kIndependent:
      return "Independent";
    case AlgorithmKind::kBlock:
      return "Block";
    case AlgorithmKind::kTransitive:
      return "Transitive";
  }
  return "?";
}

inline const char* PolicyName(PolicyKind p) {
  switch (p) {
    case PolicyKind::kCount:
      return "EM-Count";
    case PolicyKind::kMeasure:
      return "EM-Measure";
    case PolicyKind::kUniform:
      return "Uniform";
  }
  return "?";
}

/// Crash recovery for long allocation runs (DESIGN.md §9). With a non-empty
/// `directory` the run persists its complete iteration state there at
/// iteration boundaries (Basic/Block/Independent) or component boundaries
/// (Transitive); with `resume` it also continues from the newest valid
/// checkpoint instead of starting over. The directory must live *outside*
/// the StorageEnv workspace — the DiskManager unlinks its workspace on
/// destruction, and checkpoints must outlive the crashed process.
struct CheckpointOptions {
  std::string directory;  // empty = checkpointing disabled
  int every = 1;          // checkpoint every N boundaries
  bool resume = false;    // continue from the newest valid manifest

  bool enabled() const { return !directory.empty(); }
};

struct AllocationOptions {
  PolicyKind policy = PolicyKind::kCount;
  CellDomain domain = CellDomain::kPreciseCells;
  AlgorithmKind algorithm = AlgorithmKind::kTransitive;

  /// Convergence threshold ε on the per-cell relative change of Δ(c)
  /// between successive iterations (Section 3.2).
  double epsilon = 0.005;
  int max_iterations = 100;

  /// Transitive only: iterate each connected component just until *its*
  /// cells converge (the optimization Section 11.1 highlights). Off, every
  /// component runs the global iteration count — the ablation baseline.
  bool early_convergence = true;

  /// kImpreciseUnion only: cap on the stub cells preprocessing enumerates,
  /// one per (imprecise region, cell inside it) pair — a cell counts once
  /// per covering region, so this bounds the stubs, not |C|.
  int64_t max_domain_cells = 50'000'000;

  /// Checkpoint/restart (disabled by default). When disabled the demand-I/O
  /// schedule is bit-identical to a build without the feature; when enabled
  /// the EDB bytes are unchanged and only checkpoint traffic (uncounted,
  /// reported under the `ckpt.*` metrics) is added.
  CheckpointOptions checkpoint;

  /// δ(c) contribution of one precise fact under this policy.
  double DeltaContribution(const FactRecord& fact) const {
    switch (policy) {
      case PolicyKind::kCount:
        return 1.0;
      case PolicyKind::kMeasure:
        return fact.measure;
      case PolicyKind::kUniform:
        return 0.0;  // uniform seeds every cell with 1 instead, see below
    }
    return 0.0;
  }

  /// Baseline δ assigned to every cell of C before precise contributions.
  double DeltaBase() const {
    return policy == PolicyKind::kUniform ? 1.0 : 0.0;
  }

  /// Number of EM iterations is 0 for Uniform (pure E-step emission).
  int EffectiveMaxIterations() const {
    return policy == PolicyKind::kUniform ? 0 : max_iterations;
  }
};

}  // namespace iolap

#endif  // IOLAP_ALLOC_POLICY_H_
