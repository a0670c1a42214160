#include "core/preprocessor.h"

#include "common/stopwatch.h"
#include "rl/embedding.h"
#include "rl/features.h"

namespace csat::core {

PreprocessResult Preprocessor::run(const aig::Aig& instance,
                                   rl::Policy& policy) const {
  PreprocessResult result;
  Stopwatch watch;

  // Line 1-5: normalize into a (strashed) AIG.
  aig::Aig g0 = aig::cleanup_copy(instance);
  if (options_.normalize)
    g0 = synth::apply_recipe(g0, synth::normalization_recipe());
  result.ands_before = g0.num_ands();

  // Line 6-16: policy-driven synthesis-recipe exploration. States follow
  // Eq. (2): current-features ++ initial-instance embedding.
  const auto embedding = rl::functional_embedding(g0);
  aig::Aig g = aig::cleanup_copy(g0);
  policy.begin();
  for (int t = 0; t < options_.max_steps; ++t) {
    std::vector<double> state = rl::extract_features(g, g0);
    state.insert(state.end(), embedding.begin(), embedding.end());
    const synth::SynthOp action = policy.next_op(state);
    if (action == synth::SynthOp::kEnd) break;
    g = synth::apply_op(g, action);
    result.recipe.push_back(action);
  }
  result.ands_after = g.num_ands();
  result.synthesis_seconds = watch.seconds();

  // Line 17-18: cost-customized LUT mapping.
  watch.restart();
  auto mapped = lut::map_to_luts(g, options_.mapper);
  result.num_luts = mapped.num_luts;
  result.total_branching = mapped.total_branching;
  result.mapping_seconds = watch.seconds();

  // Line 19: LUT -> CNF.
  watch.restart();
  result.encoding_info = lut::lut_to_cnf(mapped.netlist);
  result.netlist = std::move(mapped.netlist);
  result.encoding_seconds = watch.seconds();
  return result;
}

}  // namespace csat::core
