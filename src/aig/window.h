#ifndef CSAT_AIG_WINDOW_H
#define CSAT_AIG_WINDOW_H

/// \file window.h
/// Reconvergence-driven cuts, cone collection and fanout indexing.
///
/// Refactoring and resubstitution operate on *windows*: a root node, a small
/// set of cut leaves computed by reconvergence-driven expansion (Mishchenko's
/// construction used by ABC's `refactor`/`resub`), the cone between them,
/// and — for resubstitution — nearby divisor nodes whose support lies inside
/// the leaves.

#include <cstdint>
#include <span>
#include <vector>

#include "aig/aig.h"

namespace csat::aig {

/// Computes a reconvergence-driven cut of \p root with at most
/// \p max_leaves leaves. Greedily expands the leaf whose expansion adds the
/// fewest new leaves (favouring reconvergence). PIs and the constant are
/// never expanded. Returns the leaves (node ids, no particular order).
std::vector<std::uint32_t> reconv_cut(const Aig& g, std::uint32_t root,
                                      int max_leaves);

/// All AND nodes strictly inside the cone of \p root above \p leaves, in
/// topological (ascending id) order; includes root itself (if an AND).
std::vector<std::uint32_t> collect_cone(const Aig& g, std::uint32_t root,
                                        const std::vector<std::uint32_t>& leaves);

/// The maximum fanout-free cone of \p root bounded at \p leaves: the AND
/// nodes freed when root is replaced by a structure over the leaves. The
/// dereference walk never enters a leaf (it stays alive as an input of the
/// replacement), so \p leaves must be a cut of root and the walk stays in
/// `collect_cone(g, root, leaves)`. Root comes first; empty if root is not
/// an AND.
std::vector<std::uint32_t> mffc_bounded(const Aig& g, std::uint32_t root,
                                        std::span<const std::uint32_t> leaves);

/// Explicit fanout adjacency, built once per synthesis pass (the append-only
/// Aig does not maintain fanout lists).
class FanoutIndex {
 public:
  explicit FanoutIndex(const Aig& g);

  [[nodiscard]] const std::vector<std::uint32_t>& fanouts(std::uint32_t n) const {
    return fanouts_[n];
  }

 private:
  std::vector<std::vector<std::uint32_t>> fanouts_;
};

/// Collects divisor candidates for resubstitution at \p root: nodes (ANDs,
/// PIs or leaves) whose function is expressible over \p leaves, excluding
/// \p mffc, root's MFFC bounded at the same leaves (`mffc_bounded`; those
/// nodes disappear when root is replaced). The forward expansion from the
/// leaves is bounded by \p max_divisors.
std::vector<std::uint32_t> collect_divisors(const Aig& g, std::uint32_t root,
                                            const std::vector<std::uint32_t>& leaves,
                                            const std::vector<std::uint32_t>& mffc,
                                            const FanoutIndex& fanouts,
                                            int max_divisors);

}  // namespace csat::aig

#endif  // CSAT_AIG_WINDOW_H
