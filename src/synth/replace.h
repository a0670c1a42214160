#ifndef CSAT_SYNTH_REPLACE_H
#define CSAT_SYNTH_REPLACE_H

/// \file replace.h
/// The commit machinery shared by all restructuring passes.
///
/// Passes (rewrite / refactor / resub) analyse a *frozen* AIG and produce a
/// set of Replacement records: "node n is functionally f(leaves)". The
/// records are applied in one PO-driven strashed rebuild — dead cones vanish
/// and sharing is rediscovered automatically, so the frozen network's
/// invariants are never at risk mid-pass (see aig.h for why the Aig is
/// append-only).
///
/// Acyclicity argument: every replacement's leaves lie strictly below the
/// replaced node in the source graph's level order, so chains of replacement
/// references strictly decrease level and the rebuild recursion terminates.

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "aig/aig.h"
#include "tt/truth_table.h"

namespace csat::synth {

struct Replacement {
  /// Node ids the new structure reads (variable i of func = leaves[i]).
  std::vector<std::uint32_t> leaves;
  /// New local function of the node's positive phase.
  tt::TruthTable func;
};

/// Dry-run node count: how many genuinely new AND nodes would building
/// `func(leaves)` add to \p g (structure sharing with existing logic is
/// discovered through the strash table).
int count_new_nodes(const aig::Aig& g, const tt::TruthTable& func,
                    std::span<const std::uint32_t> leaves);

/// Rebuilds \p g with all \p replacements applied; PO-driven, strashed.
aig::Aig apply_replacements(
    const aig::Aig& g,
    const std::unordered_map<std::uint32_t, Replacement>& replacements);

}  // namespace csat::synth

#endif  // CSAT_SYNTH_REPLACE_H
