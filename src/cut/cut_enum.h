#ifndef CSAT_CUT_CUT_ENUM_H
#define CSAT_CUT_CUT_ENUM_H

/// \file cut_enum.h
/// K-feasible cut enumeration with truth tables (priority cuts).
///
/// A cut of node n is a set of nodes (leaves) such that every path from n to
/// the PIs crosses a leaf; a cut is k-feasible when it has at most k leaves.
/// Cuts drive both DAG-aware rewriting (4-cuts, Section III-B action
/// `rewrite`) and LUT mapping (4-cuts, Section III-C). Per node we keep a
/// bounded set of non-dominated cuts ("priority cuts", Mishchenko et al.),
/// each annotated with its local function, which is what the cost-customized
/// mapper prices via tt::branching_cost.

#include <cstdint>
#include <vector>

#include "aig/aig.h"
#include "tt/truth_table.h"

namespace csat::cut {

struct Cut {
  /// Sorted node ids of the leaves.
  std::vector<std::uint32_t> leaves;
  /// 32-bit Bloom signature of the leaves (subset pre-filter).
  std::uint32_t signature = 0;
  /// Function of the (positive phase of the) root over the leaves, leaf i =
  /// variable i.
  tt::TruthTable func;

  [[nodiscard]] int size() const { return static_cast<int>(leaves.size()); }

  /// True if every leaf of this cut also appears in \p other (i.e. this cut
  /// dominates other and other is redundant).
  [[nodiscard]] bool dominates(const Cut& other) const;
};

struct CutParams {
  int cut_size = 4;    ///< k: maximum leaves per cut
  int max_cuts = 8;    ///< priority-cut bound per node (excl. trivial cut)
  bool keep_trivial = true;  ///< include the unit cut {n} in each set
};

/// Enumerates cuts for every node of \p g. Cut functions are always
/// computed (cut_size must stay <= TruthTable::kMaxVars).
class CutEnumerator {
 public:
  CutEnumerator(const aig::Aig& g, const CutParams& params);

  /// Cuts of node \p n (PIs and constant get exactly the trivial cut).
  [[nodiscard]] const std::vector<Cut>& cuts(std::uint32_t n) const {
    return cuts_[n];
  }

  [[nodiscard]] const CutParams& params() const { return params_; }

 private:
  void merge_node(const aig::Aig& g, std::uint32_t n);

  CutParams params_;
  std::vector<std::vector<Cut>> cuts_;
};

/// Re-expresses \p t (a function over \p from leaves) over the superset
/// \p to of leaves. Both leaf lists must be sorted; `from` must be a subset
/// of `to`.
tt::TruthTable expand_tt(const tt::TruthTable& t,
                         const std::vector<std::uint32_t>& from,
                         const std::vector<std::uint32_t>& to);

}  // namespace csat::cut

#endif  // CSAT_CUT_CUT_ENUM_H
