// Google-benchmark microbenchmarks for the logic-synthesis engine — the
// cost model behind the RL agent's action space (each action's latency is
// part of the paper's "transformation time" in total runtime).
// Counters report the size reduction each op achieves on its workload
// (a multiplier miter; for the *Adder cases an adder miter) so throughput
// and quality are visible together.

#include <benchmark/benchmark.h>

#include "gen/arith.h"
#include "gen/miter.h"
#include "gen/random_circuit.h"
#include "synth/balance.h"
#include "synth/recipe.h"
#include "synth/refactor.h"
#include "synth/resub.h"
#include "synth/rewrite.h"

using namespace csat;

namespace {

aig::Aig standard_workload(int scale) {
  // A multiplier-equivalence miter: representative of the paper's LEC mix.
  aig::Aig m1, m2;
  {
    const auto a = gen::input_word(m1, scale);
    const auto b = gen::input_word(m1, scale);
    for (aig::Lit l : gen::array_multiply(m1, a, b)) m1.add_po(l);
  }
  {
    const auto a = gen::input_word(m2, scale);
    const auto b = gen::input_word(m2, scale);
    for (aig::Lit l : gen::shift_add_multiply(m2, b, a)) m2.add_po(l);
  }
  return gen::make_miter(m1, m2);
}

aig::Aig adder_workload(int width) {
  // A wide adder-equivalence miter, normalized as the pipeline does: the
  // preprocess-bound instance of the Fig. 4 slice, where every root's
  // fanout-free cone is deep.
  return synth::apply_recipe(aig::cleanup_copy(gen::make_adder_miter(width)),
                             synth::normalization_recipe());
}

template <typename Op>
void run_op_benchmark(benchmark::State& state, Op op,
                      aig::Aig (*workload)(int) = standard_workload) {
  const aig::Aig g = workload(static_cast<int>(state.range(0)));
  std::size_t after = 0;
  for (auto _ : state) {
    const aig::Aig h = op(g);
    after = h.num_ands();
    benchmark::DoNotOptimize(after);
  }
  state.counters["ands_before"] = static_cast<double>(g.num_live_ands());
  state.counters["ands_after"] = static_cast<double>(after);
  state.counters["reduction_pct"] =
      100.0 * (1.0 - static_cast<double>(after) /
                         static_cast<double>(g.num_live_ands()));
}

void BM_Rewrite(benchmark::State& state) {
  run_op_benchmark(state, [](const aig::Aig& g) { return synth::rewrite(g); });
}
void BM_Refactor(benchmark::State& state) {
  run_op_benchmark(state, [](const aig::Aig& g) { return synth::refactor(g); });
}
void BM_Balance(benchmark::State& state) {
  run_op_benchmark(state, [](const aig::Aig& g) { return synth::balance(g); });
}
void BM_Resub(benchmark::State& state) {
  run_op_benchmark(state, [](const aig::Aig& g) { return synth::resub(g); });
}
void BM_Compress2(benchmark::State& state) {
  run_op_benchmark(state, [](const aig::Aig& g) {
    return synth::apply_recipe(g, synth::compress2_recipe());
  });
}
void BM_ResubAdder(benchmark::State& state) {
  run_op_benchmark(
      state, [](const aig::Aig& g) { return synth::resub(g); },
      adder_workload);
}
void BM_Compress2Adder(benchmark::State& state) {
  run_op_benchmark(
      state,
      [](const aig::Aig& g) {
        return synth::apply_recipe(g, synth::compress2_recipe());
      },
      adder_workload);
}

}  // namespace

BENCHMARK(BM_Rewrite)->Arg(5)->Arg(8)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Refactor)->Arg(5)->Arg(8)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Balance)->Arg(5)->Arg(8)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Resub)->Arg(5)->Arg(8)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Compress2)->Arg(5)->Arg(8)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ResubAdder)->Arg(128)->Arg(256)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Compress2Adder)->Arg(128)->Arg(256)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
