// Cross-module integration tests: full-pipeline verdict preservation with
// CNF-level preprocessing enabled, trained-agent deployment, trivial-verdict
// short-circuits, and a complete file-level round trip
// (AIGER -> framework -> DIMACS -> reread -> solve).

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "aig/aiger_io.h"
#include "aig/simulate.h"
#include "cnf/dimacs.h"
#include "core/pipeline.h"
#include "core/preprocessor.h"
#include "gen/arith.h"
#include "gen/miter.h"
#include "gen/suite.h"
#include "rl/embedding.h"
#include "rl/features.h"
#include "rl/policy.h"
#include "rl/trainer.h"

namespace csat {
namespace {

using aig::Aig;

TEST(Integration, CnfSimplifyPreservesVerdictAndWitness) {
  const auto suite = gen::make_training_suite(8, 321);
  for (const auto& inst : suite) {
    core::PipelineOptions plain;
    plain.mode = core::PipelineMode::kOurs;
    plain.limits.max_conflicts = 300000;
    plain.max_steps = 3;
    plain.cnf_simplify = false;  // defaults on; this arm is the control
    const auto r1 = core::solve_instance(inst.circuit, plain);

    core::PipelineOptions simplified = plain;
    simplified.cnf_simplify = true;
    const auto r2 = core::solve_instance(inst.circuit, simplified);

    ASSERT_NE(r1.status, sat::Status::kUnknown) << inst.name;
    EXPECT_EQ(r1.status, r2.status) << inst.name;
    if (r2.status == sat::Status::kSat) {
      bool some_po = false;
      for (bool po : evaluate(inst.circuit, r2.witness)) some_po |= po;
      EXPECT_TRUE(some_po) << inst.name;
    }
    // Both arms saw the same encoded CNF, and preprocessing never grew it.
    EXPECT_EQ(r2.cnf_clauses, r1.cnf_clauses) << inst.name;
    EXPECT_TRUE(r2.simplified) << inst.name;
    EXPECT_LE(r2.simplified_clauses, r2.cnf_clauses) << inst.name;
    EXPECT_LE(r2.simplified_vars, r2.cnf_vars) << inst.name;
  }
}

TEST(Integration, TrainedAgentDeploysThroughPipeline) {
  const auto train_set = gen::make_training_suite(4, 55);
  rl::DqnConfig dcfg;
  dcfg.state_size = rl::kNumStateFeatures + rl::kEmbeddingDim;
  dcfg.hidden = {16};
  dcfg.batch_size = 4;
  rl::DqnAgent agent(dcfg);
  rl::TrainConfig tcfg;
  tcfg.episodes = 3;
  tcfg.env.max_steps = 2;
  tcfg.env.solve_limits.max_conflicts = 3000;
  (void)rl::train_agent(agent, train_set, tcfg);

  core::PipelineOptions o;
  o.mode = core::PipelineMode::kOurs;
  o.agent = &agent;
  o.max_steps = 3;
  o.limits.max_conflicts = 300000;
  const auto base = core::solve_instance(
      train_set[0].circuit, [] {
        core::PipelineOptions b;
        b.mode = core::PipelineMode::kBaseline;
        b.limits.max_conflicts = 300000;
        return b;
      }());
  const auto r = core::solve_instance(train_set[0].circuit, o);
  EXPECT_EQ(r.status, base.status);
  EXPECT_LE(r.recipe.size(), 3u);
}

TEST(Integration, TriviallyConstantInstances) {
  // PO stuck at 0: every arm must report UNSAT without search.
  Aig zero;
  (void)zero.add_pi();
  zero.add_po(aig::kFalse);
  // PO stuck at 1: SAT without search.
  Aig one;
  (void)one.add_pi();
  one.add_po(aig::kTrue);
  for (const auto mode : {core::PipelineMode::kBaseline, core::PipelineMode::kComp,
                          core::PipelineMode::kOurs}) {
    core::PipelineOptions o;
    o.mode = mode;
    EXPECT_EQ(core::solve_instance(zero, o).status, sat::Status::kUnsat)
        << core::to_string(mode);
    EXPECT_EQ(core::solve_instance(one, o).status, sat::Status::kSat)
        << core::to_string(mode);
  }
}

TEST(Integration, FileLevelRoundTrip) {
  // Build instance -> write AIGER -> reread -> preprocess -> write DIMACS
  // -> reread -> solve: the external-tool interop path end to end.
  Aig g1, g2;
  {
    const auto a = gen::input_word(g1, 5);
    const auto b = gen::input_word(g1, 5);
    for (aig::Lit l : gen::array_multiply(g1, a, b)) g1.add_po(l);
  }
  {
    const auto a = gen::input_word(g2, 5);
    const auto b = gen::input_word(g2, 5);
    for (aig::Lit l : gen::shift_add_multiply(g2, b, a)) g2.add_po(l);
  }
  const Aig miter = gen::make_miter(g1, g2);

  const std::string aig_path = ::testing::TempDir() + "/csat_it.aig";
  const std::string cnf_path = ::testing::TempDir() + "/csat_it.cnf";
  aig::write_aiger_file(miter, aig_path, /*binary=*/true);
  const Aig reread = aig::read_aiger_file(aig_path);
  ASSERT_TRUE(aig::equal_by_simulation(miter, reread));

  rl::FixedRecipePolicy policy(synth::compress2_recipe());
  const auto p = core::Preprocessor().run(reread, policy);
  cnf::write_dimacs_file(p.encoding_info.cnf, cnf_path);
  const auto formula = cnf::read_dimacs_file(cnf_path);
  EXPECT_EQ(formula.num_clauses(), p.encoding_info.cnf.num_clauses());

  const auto r = sat::solve_cnf(formula);
  EXPECT_EQ(r.status, sat::Status::kUnsat);  // commuted multipliers are equal
  std::remove(aig_path.c_str());
  std::remove(cnf_path.c_str());
}

TEST(Integration, StatsFlowThroughAllPhases) {
  Aig inst;
  const auto a = gen::input_word(inst, 6);
  const auto b = gen::input_word(inst, 6);
  const auto s = gen::kogge_stone_add(inst, a, b, aig::kFalse, true);
  inst.add_po(inst.and2(s[2], !s[6]));

  rl::FixedRecipePolicy policy(synth::compress2_recipe());
  core::PreprocessOptions popt;
  const auto p = core::Preprocessor(popt).run(inst, policy);
  EXPECT_GT(p.synthesis_seconds, 0.0);
  EXPECT_GT(p.mapping_seconds, 0.0);
  EXPECT_GE(p.encoding_seconds, 0.0);
  EXPECT_GT(p.ands_before, p.ands_after / 4);  // sanity, not a regression bound
  EXPECT_EQ(static_cast<std::int64_t>(p.encoding_info.cnf.num_clauses()),
            p.total_branching + 1);
}

}  // namespace
}  // namespace csat
