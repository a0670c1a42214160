// Integration tests for the framework core: Algorithm 1 mechanics, and the
// non-negotiable end-to-end guarantee that every pipeline arm (Baseline,
// Comp., Ours, w/o RL, C. Mapper) preserves the SAT verdict and produces
// valid witnesses on real LEC/ATPG miters.

#include <gtest/gtest.h>

#include "aig/simulate.h"
#include "core/pipeline.h"
#include "core/preprocessor.h"
#include "gen/arith.h"
#include "gen/miter.h"
#include "gen/suite.h"
#include "rl/policy.h"

namespace csat::core {
namespace {

using aig::Aig;

PipelineOptions options_for(PipelineMode mode) {
  PipelineOptions o;
  o.mode = mode;
  o.limits.max_conflicts = 300000;
  o.max_steps = 4;  // keep integration tests fast
  o.seed = 17;
  return o;
}

TEST(Preprocessor, RunsAlgorithmOneWithFixedPolicy) {
  Aig inst;
  {
    const auto a = gen::input_word(inst, 4);
    const auto b = gen::input_word(inst, 4);
    const auto s = gen::kogge_stone_add(inst, a, b, aig::kFalse, true);
    inst.add_po(inst.and2(s[1], !s[4]));
  }
  rl::FixedRecipePolicy policy(synth::compress2_recipe());
  PreprocessOptions popt;
  popt.max_steps = 10;
  const Preprocessor pre(popt);
  const auto r = pre.run(inst, policy);
  EXPECT_EQ(r.recipe.size(), synth::compress2_recipe().size());
  EXPECT_GT(r.num_luts, 0u);
  EXPECT_GT(r.encoding_info.cnf.num_clauses(), 0u);
  // ISOP encoding accounting: clauses = total branching + goal unit.
  EXPECT_EQ(static_cast<std::int64_t>(r.encoding_info.cnf.num_clauses()),
            r.total_branching + 1);
}

TEST(Preprocessor, StepCapLimitsRecipeLength) {
  Aig inst;
  const auto a = gen::input_word(inst, 3);
  const auto b = gen::input_word(inst, 3);
  const auto p = gen::array_multiply(inst, a, b);
  inst.add_po(p[3]);
  rl::RandomPolicy policy(5);  // never emits `end`
  PreprocessOptions popt;
  popt.max_steps = 3;
  const auto r = Preprocessor(popt).run(inst, policy);
  EXPECT_EQ(r.recipe.size(), 3u);
}

TEST(Pipeline, AllArmsPreserveVerdictAndWitnesses) {
  const auto suite = gen::make_training_suite(10, 123);
  for (const auto& inst : suite) {
    const auto base = solve_instance(inst.circuit, options_for(PipelineMode::kBaseline));
    ASSERT_NE(base.status, sat::Status::kUnknown) << inst.name;
    for (const auto mode :
         {PipelineMode::kComp, PipelineMode::kOurs, PipelineMode::kOursRandom,
          PipelineMode::kOursAreaMapper}) {
      const auto r = solve_instance(inst.circuit, options_for(mode));
      EXPECT_EQ(r.status, base.status)
          << inst.name << " mode=" << to_string(mode);
      if (r.status == sat::Status::kSat) {
        ASSERT_EQ(r.witness.size(), inst.circuit.num_pis());
        bool some_po = false;
        for (bool po : evaluate(inst.circuit, r.witness)) some_po |= po;
        EXPECT_TRUE(some_po) << inst.name << " mode=" << to_string(mode);
      }
    }
  }
}

TEST(Pipeline, ReportsPlausibleStatistics) {
  Aig inst;
  {
    const auto a = gen::input_word(inst, 5);
    const auto b = gen::input_word(inst, 5);
    const auto p = gen::array_multiply(inst, a, b);
    inst.add_po(inst.and2(p[4], p[7]));
  }
  const auto r = solve_instance(inst, options_for(PipelineMode::kOursRandom));
  EXPECT_GT(r.ands_before, 0u);
  EXPECT_GT(r.num_luts, 0u);
  EXPECT_GT(r.cnf_clauses, 0u);
  EXPECT_GE(r.total_seconds(), 0.0);
  EXPECT_LE(r.recipe.size(), 4u);
}

TEST(Pipeline, DeterministicForFixedSeed) {
  Aig inst;
  const auto a = gen::input_word(inst, 4);
  const auto b = gen::input_word(inst, 4);
  const auto p = gen::array_multiply(inst, a, b);
  inst.add_po(inst.and2(p[2], !p[5]));
  const auto r1 = solve_instance(inst, options_for(PipelineMode::kOursRandom));
  const auto r2 = solve_instance(inst, options_for(PipelineMode::kOursRandom));
  EXPECT_EQ(r1.status, r2.status);
  EXPECT_EQ(r1.solver_stats.decisions, r2.solver_stats.decisions);
  EXPECT_EQ(r1.cnf_clauses, r2.cnf_clauses);
  EXPECT_EQ(r1.recipe, r2.recipe);
}

TEST(Pipeline, CompUsesAreaMapperAndFixedScript) {
  Aig inst;
  const auto a = gen::input_word(inst, 4);
  const auto b = gen::input_word(inst, 4);
  const auto s = gen::ripple_carry_add(inst, a, b, aig::kFalse, true);
  inst.add_po(inst.and2(s[0], s[4]));
  const auto r = solve_instance(inst, options_for(PipelineMode::kComp));
  // compress2 has 7 ops but the step cap (4) truncates it.
  EXPECT_EQ(r.recipe.size(), 4u);
  EXPECT_NE(r.status, sat::Status::kUnknown);
}

TEST(Pipeline, BudgetExhaustionReportsUnknown) {
  // A commuted 6x6 multiplier miter cannot be refuted in 10 conflicts.
  Aig g1, g2;
  {
    const auto a = gen::input_word(g1, 6), b = gen::input_word(g1, 6);
    for (aig::Lit l : gen::array_multiply(g1, a, b)) g1.add_po(l);
  }
  {
    const auto a = gen::input_word(g2, 6), b = gen::input_word(g2, 6);
    for (aig::Lit l : gen::shift_add_multiply(g2, b, a)) g2.add_po(l);
  }
  const Aig miter = gen::make_miter(g1, g2);
  PipelineOptions o = options_for(PipelineMode::kBaseline);
  o.limits.max_conflicts = 10;
  EXPECT_EQ(solve_instance(miter, o).status, sat::Status::kUnknown);
}

}  // namespace
}  // namespace csat::core
