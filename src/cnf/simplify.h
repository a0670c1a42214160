#ifndef CSAT_CNF_SIMPLIFY_H
#define CSAT_CNF_SIMPLIFY_H

/// \file simplify.h
/// CNF-level preprocessing: unit propagation, pure-literal elimination,
/// (self-)subsumption, bounded variable elimination and variable remapping.
///
/// The paper's pipeline runs on top of the solvers' "default CNF-based
/// preprocessing" (Section IV, footnote 1) — the techniques of Eén-Biere
/// SatELite and NiVER ([5], [6] in the paper). This module provides that
/// layer for our self-contained stack:
///   * unit propagation to a fixpoint,
///   * pure-literal elimination,
///   * backward subsumption and self-subsuming resolution (strengthening),
///   * bounded variable elimination (eliminate v when the resolvent set is
///     no larger than the clauses it replaces, NiVER's non-increasing rule),
///   * variable remapping: the output formula lives on a dense variable
///     range containing only the surviving variables, so the CDCL solver
///     never allocates or branches over eliminated ones.
/// There is no failed-literal probing or equivalence substitution: the
/// paper finds constant and equivalent nodes in logic synthesis, on the
/// AIG, before any CNF exists, and probing costs time quadratic in the
/// length of a carry chain.
///
/// Every removal is recorded on a reconstruction stack so that a model of
/// the simplified formula can be *extended* to a model of the original
/// formula (SatELite-style reconstruction, replayed newest-first).
///
/// Storage is flat and allocation-free in the steady state. Clauses are
/// {offset, size, signature, alive} records over one literal arena; every
/// rewrite keeps or shrinks a clause, so it is done in place. Subsumption
/// marks the queued clause's literals once and tests each candidate
/// against the marks. BVE counts the non-tautological resolvents with
/// literal marks first and builds them, one at a time in a reused buffer,
/// only once the elimination is accepted. An eliminated variable's clauses
/// go onto one flat literal vector (SimplifyResult::stack_lits) that its
/// stack entry points into.
///
/// All techniques are budgeted so the engine is safe to run by default on
/// every solve path. Spent resolutions stop subsumption and BVE, and the
/// wall clock stops everything. Pending units are
/// always drained, so a cut-short run still returns an equisatisfiable
/// formula.

#include <cstdint>
#include <limits>
#include <vector>

#include "cnf/cnf.h"

namespace csat::sat {
class ProofTracer;  // sat/proof.h
}

namespace csat::cnf {

struct SimplifyParams {
  bool pure_literals = true;
  bool subsumption = true;
  bool variable_elimination = true;
  /// Variables with more than this many occurrences are never eliminated
  /// (quadratic resolvent blow-up guard).
  int bve_occurrence_limit = 16;
  /// Budget on resolution steps (subsumption subset tests and BVE
  /// resolvent pairs). Deterministic; once spent, subsumption and BVE stop.
  std::uint64_t max_resolutions = 10'000'000;
  /// Wall-clock cap in seconds; once passed, every technique stops.
  /// Infinite by default: finite values make the *output* depend on
  /// machine speed, which breaks run-to-run determinism (the resolution
  /// budget above is the deterministic guard).
  double max_seconds = std::numeric_limits<double>::infinity();
  /// Optional DRAT proof sink (sat/proof.h; not owned). When set, every
  /// state change — unit and pure fixes, subsumption kills,
  /// strengthenings, BVE resolvents and parent deletions — is emitted as
  /// add/delete steps *in the input variable space*, before the dense
  /// remapping, so the proof composes
  /// with the solver's continuation (translated back through
  /// sat::RemapTracer) into one refutation of the original formula.
  /// Proof mode implies unit propagation: pending units are always
  /// drained so pure-literal steps stay RAT-checkable.
  csat::sat::ProofTracer* proof = nullptr;
};

struct SimplifyStats {
  std::uint64_t fixed_units = 0;        ///< fixed by unit propagation
  std::uint64_t pure_literals = 0;      ///< fixed as pure
  std::uint64_t eliminated_vars = 0;    ///< removed by variable elimination
  std::uint64_t subsumed_clauses = 0;
  std::uint64_t strengthened_clauses = 0;
  std::uint64_t removed_clauses = 0;    ///< total clauses dropped
  std::uint64_t resolutions = 0;        ///< resolution steps spent
  bool budget_exhausted = false;        ///< a budget stopped some technique
  double seconds = 0.0;                 ///< wall clock spent simplifying
};

class SimplifyResult {
 public:
  /// Simplified formula, on a dense variable range (see var_map/
  /// inverse_map). When unsat, it is the canonical unsatisfiable formula:
  /// zero variables and one empty clause.
  Cnf cnf;
  SimplifyStats stats;
  bool unsat = false;  ///< conflict found during preprocessing

  /// Variable count of the *original* formula.
  std::uint32_t original_vars = 0;

  /// Sentinel in var_map for variables with no image in the output
  /// (fixed, eliminated or unconstrained).
  static constexpr std::uint32_t kUnmapped =
      std::numeric_limits<std::uint32_t>::max();
  /// original variable -> output variable (kUnmapped when dropped).
  std::vector<std::uint32_t> var_map;
  /// output variable -> original variable (size == cnf.num_vars()).
  std::vector<std::uint32_t> inverse_map;

  /// Extends a model of `cnf` (indexed by *output* variables; extra
  /// entries are ignored) to a model of the original formula: output
  /// values are scattered through inverse_map, then the reconstruction
  /// stack is replayed newest-first. The returned vector has
  /// original_vars entries.
  [[nodiscard]] std::vector<bool> extend_model(std::vector<bool> model) const;

  /// One reconstruction-stack entry. Entries are pushed in the order the
  /// simplifier acted and must be replayed in reverse (newest first);
  /// treat as read-only from user code.
  struct Reconstruction {
    enum class Kind : std::uint8_t {
      kFixed,       ///< var fixed to a constant: `binding` is the true literal
      kEliminated,  ///< var removed by BVE: stack_lits[begin, end) holds its
                    ///< original clauses, which force its value under the
                    ///< suffix
    };
    Kind kind = Kind::kFixed;
    std::uint32_t var = 0;
    Lit binding{};  ///< kFixed payload (unused for kEliminated)
    std::uint32_t begin = 0;  ///< kEliminated payload range in stack_lits
    std::uint32_t end = 0;
  };
  std::vector<Reconstruction> stack;
  /// The kEliminated entries' clauses, back to back. Each clause is led by
  /// its literal on the eliminated variable, which occurs nowhere else in
  /// it, so that literal marks where one clause ends and the next begins.
  std::vector<Lit> stack_lits;
};

/// Runs the preprocessing pipeline. The result's formula is
/// equisatisfiable with the input, and extend_model() maps models back.
SimplifyResult simplify(const Cnf& formula, const SimplifyParams& params = {});

}  // namespace csat::cnf

#endif  // CSAT_CNF_SIMPLIFY_H
