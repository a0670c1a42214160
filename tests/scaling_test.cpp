// Wall-clock scaling guards: each synthesis op and the CNF simplifier on a
// ~2.2x larger adder miter must stay under a fixed time ratio, so a stage
// that turns super-linear fails here. They time themselves, so ctest runs
// this executable alone (RUN_SERIAL): other tests sharing the cores would
// skew one side of a ratio.

#include <gtest/gtest.h>

#include <algorithm>

#include "cnf/simplify.h"
#include "cnf/tseitin.h"
#include "common/stopwatch.h"
#include "gen/miter.h"
#include "synth/balance.h"
#include "synth/recipe.h"
#include "synth/refactor.h"
#include "synth/resub.h"
#include "synth/rewrite.h"

namespace csat::synth {
namespace {

using aig::Aig;

Aig do_rewrite(const Aig& g) { return rewrite(g); }
Aig do_refactor(const Aig& g) { return refactor(g); }
Aig do_balance(const Aig& g) { return balance(g); }
Aig do_resub(const Aig& g) { return resub(g); }

// Scaling guard: each op on the 256-bit adder miter (7496 ANDs normalized)
// against the 128-bit one (3351 ANDs). Linear work scales by ~2.2x; a walk
// over the whole graph per node scales by 2.2^2 ~ 5x or more and fails the
// 3.5x bound. The sizes alternate and each keeps its fastest run (at least
// 5 runs, more until the small side has had 0.25 s), so load on a shared
// machine hits both sides alike and sub-millisecond ops are not timer noise.
double scaling_ratio(Aig (*op)(const Aig&)) {
  const auto normalized = [](int width) {
    return apply_recipe(cleanup_copy(gen::make_adder_miter(width)),
                        normalization_recipe());
  };
  const Aig small = normalized(128);
  const Aig large = normalized(256);
  double best_small = 1e9;
  double best_large = 1e9;
  double total_small = 0;
  for (int rep = 0; rep < 5 || total_small < 0.25; ++rep) {
    for (const Aig* g : {&small, &large}) {
      Stopwatch watch;
      (void)op(*g);
      const double s = watch.seconds();
      if (g == &small) {
        best_small = std::min(best_small, s);
        total_small += s;
      } else {
        best_large = std::min(best_large, s);
      }
    }
  }
  return best_large / best_small;
}

constexpr double kMaxScalingRatio = 3.5;

TEST(SynthScaling, Balance) {
  EXPECT_LE(scaling_ratio(do_balance), kMaxScalingRatio);
}
TEST(SynthScaling, Rewrite) {
  EXPECT_LE(scaling_ratio(do_rewrite), kMaxScalingRatio);
}
TEST(SynthScaling, Refactor) {
  EXPECT_LE(scaling_ratio(do_refactor), kMaxScalingRatio);
}
TEST(SynthScaling, Resub) {
  EXPECT_LE(scaling_ratio(do_resub), kMaxScalingRatio);
}

}  // namespace
}  // namespace csat::synth

namespace csat::cnf {
namespace {

// Scaling guard: simplify on the Tseitin CNF of the 512-bit adder miter
// against the 256-bit one. Linear work scales by ~2.2x; a stage that walks
// the carry chain from every variable (as failed-literal probing did)
// scales by ~4x and fails the 3x bound. The sizes alternate and each keeps
// its fastest run (at least 5 runs, more until the small side has had
// 0.25 s), so load on a shared machine hits both sides alike.
TEST(SimplifyScaling, AdderMiter) {
  const Cnf small = tseitin_encode(gen::make_adder_miter(256)).cnf;
  const Cnf large = tseitin_encode(gen::make_adder_miter(512)).cnf;
  double best_small = 1e9;
  double best_large = 1e9;
  double total_small = 0;
  for (int rep = 0; rep < 5 || total_small < 0.25; ++rep) {
    for (const Cnf* f : {&small, &large}) {
      Stopwatch watch;
      (void)simplify(*f);
      const double s = watch.seconds();
      if (f == &small) {
        best_small = std::min(best_small, s);
        total_small += s;
      } else {
        best_large = std::min(best_large, s);
      }
    }
  }
  EXPECT_LE(best_large / best_small, 3.0);
}

}  // namespace
}  // namespace csat::cnf
