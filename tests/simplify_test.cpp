// Tests for the CNF preprocessing layer (unit propagation, pure literals,
// subsumption, self-subsuming resolution, bounded variable elimination,
// variable remapping, budgets).
// Equisatisfiability and model reconstruction are cross-checked against
// brute force and the CDCL solver.

#include <gtest/gtest.h>

#include <algorithm>
#include <span>

#include "cnf/simplify.h"
#include "cnf/tseitin.h"
#include "common/rng.h"
#include "core/preprocessor.h"
#include "gen/suite.h"
#include "rl/policy.h"
#include "sat/proof.h"
#include "sat/solver.h"
#include "synth/recipe.h"

namespace csat::cnf {
namespace {

Lit pos(std::uint32_t v) { return Lit::make(v, false); }
Lit neg(std::uint32_t v) { return Lit::make(v, true); }

bool brute_force_sat(const Cnf& f) {
  CSAT_CHECK(f.num_vars() <= 20);
  std::vector<bool> model(f.num_vars());
  for (std::uint64_t m = 0; m < (1ULL << f.num_vars()); ++m) {
    for (std::uint32_t v = 0; v < f.num_vars(); ++v) model[v] = (m >> v) & 1;
    if (f.satisfied_by(model)) return true;
  }
  return false;
}

Cnf random_3sat(int vars, int clauses, std::uint64_t seed) {
  Rng rng(seed);
  Cnf f;
  f.add_vars(vars);
  for (int i = 0; i < clauses; ++i) {
    std::vector<Lit> c;
    while (c.size() < 3) {
      const auto v = static_cast<std::uint32_t>(rng.next_below(vars));
      bool dup = false;
      for (Lit x : c) dup |= x.var() == v;
      if (!dup) c.push_back(Lit::make(v, rng.next_bool()));
    }
    f.add_clause(c);
  }
  return f;
}

TEST(Simplify, UnitPropagationChains) {
  Cnf f;
  f.add_vars(4);
  f.add_unit(pos(0));
  f.add_binary(neg(0), pos(1));
  f.add_binary(neg(1), pos(2));
  f.add_ternary(neg(2), pos(3), pos(0));
  const auto r = simplify(f);
  EXPECT_FALSE(r.unsat);
  EXPECT_GE(r.stats.fixed_units, 3u);
  // Everything collapses to units (x3 is pure or free).
  for (std::size_t i = 0; i < r.cnf.num_clauses(); ++i)
    EXPECT_EQ(r.cnf.clause(i).size(), 1u);
}

TEST(Simplify, DetectsUnsatDuringPropagation) {
  Cnf f;
  f.add_vars(2);
  f.add_unit(pos(0));
  f.add_binary(neg(0), pos(1));
  f.add_binary(neg(0), neg(1));
  const auto r = simplify(f);
  EXPECT_TRUE(r.unsat);
  EXPECT_EQ(sat::solve_cnf(r.cnf).status, sat::Status::kUnsat);
}

TEST(Simplify, PureLiteralElimination) {
  Cnf f;
  f.add_vars(3);
  f.add_binary(pos(0), pos(1));  // x0 occurs only positively
  f.add_binary(pos(0), neg(1));
  f.add_binary(pos(2), neg(2));  // tautology: dropped on input
  const auto r = simplify(f);
  EXPECT_FALSE(r.unsat);
  EXPECT_GE(r.stats.pure_literals, 1u);
}

TEST(Simplify, SubsumptionRemovesSupersets) {
  Cnf f;
  f.add_vars(4);
  f.add_binary(pos(0), pos(1));
  f.add_ternary(pos(0), pos(1), pos(2));  // subsumed by the binary
  f.add_ternary(pos(0), pos(1), neg(3));  // subsumed too
  SimplifyParams p;
  p.variable_elimination = false;
  p.pure_literals = false;
  const auto r = simplify(f, p);
  EXPECT_GE(r.stats.subsumed_clauses, 2u);
}

TEST(Simplify, SelfSubsumingResolutionStrengthens) {
  Cnf f;
  f.add_vars(3);
  f.add_binary(pos(0), pos(1));
  f.add_ternary(pos(0), neg(1), pos(2));  // resolves to (x0 x2)
  SimplifyParams p;
  p.variable_elimination = false;
  p.pure_literals = false;
  const auto r = simplify(f, p);
  EXPECT_GE(r.stats.strengthened_clauses, 1u);
}

TEST(Simplify, VariableEliminationReducesVars) {
  // v appears in 2x2 clauses; resolvents: 4 candidates, some tautological.
  Cnf f;
  f.add_vars(5);
  f.add_binary(pos(0), pos(4));
  f.add_binary(pos(1), pos(4));
  f.add_binary(pos(2), neg(4));
  f.add_binary(pos(3), neg(4));
  const auto r = simplify(f);
  EXPECT_FALSE(r.unsat);
  EXPECT_GE(r.stats.eliminated_vars + r.stats.pure_literals +
                r.stats.fixed_units,
            1u);
}

class SimplifyProperty : public ::testing::TestWithParam<int> {};

TEST_P(SimplifyProperty, PreservesSatisfiabilityAndModelsExtend) {
  Rng rng(900 + GetParam());
  for (int iter = 0; iter < 20; ++iter) {
    const int vars = 6 + static_cast<int>(rng.next_below(10));
    const int clauses = static_cast<int>(vars * (1.5 + 3.0 * rng.next_double()));
    const Cnf f = random_3sat(vars, clauses, rng.next_u64());
    const bool expected = brute_force_sat(f);

    const auto r = simplify(f);
    if (r.unsat) {
      EXPECT_FALSE(expected);
      continue;
    }
    const auto solved = sat::solve_cnf(r.cnf);
    EXPECT_EQ(solved.status == sat::Status::kSat, expected);
    if (solved.status == sat::Status::kSat) {
      // The reconstructed model must satisfy the ORIGINAL formula.
      auto model = solved.model;
      model.resize(f.num_vars());
      const auto full = r.extend_model(model);
      EXPECT_TRUE(f.satisfied_by(full));
    }
  }
}

TEST_P(SimplifyProperty, NeverGrowsTheFormula) {
  Rng rng(7700 + GetParam());
  const Cnf f = random_3sat(20, 80, rng.next_u64());
  const auto r = simplify(f);
  EXPECT_LE(r.cnf.num_literals(), f.num_literals() + f.num_vars());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimplifyProperty, ::testing::Range(0, 8));

// Regression: fix_literal used to bump fixed_units unconditionally, so a
// pure-literal fix was double-counted as both pure_literals and
// fixed_units. Each fix must land in exactly one bucket.
TEST(Simplify, FixesCountInExactlyOneBucket) {
  Cnf f;
  f.add_vars(4);
  f.add_unit(pos(0));            // unit: x0
  f.add_binary(neg(0), pos(1));  // propagates to unit: x1
  f.add_binary(neg(2), pos(3));  // x2 occurs only negatively: pure
  f.add_binary(neg(2), neg(3));
  SimplifyParams p;
  p.subsumption = false;
  p.variable_elimination = false;
  const auto r = simplify(f, p);
  EXPECT_FALSE(r.unsat);
  EXPECT_EQ(r.stats.fixed_units, 2u);    // x0, x1
  EXPECT_EQ(r.stats.pure_literals, 1u);  // x2 (x3 ends up unconstrained)
}

// Regression: finish() used to encode UNSAT as contradictory units on
// variable 0 even for a 0-variable formula containing the empty clause,
// emitting out-of-range literals.
TEST(Simplify, UnsatZeroVarFormulaStaysInRange) {
  Cnf f;  // no variables at all
  const std::vector<Lit> empty;
  f.add_clause(empty);
  const auto r = simplify(f);
  EXPECT_TRUE(r.unsat);
  for (std::size_t i = 0; i < r.cnf.num_clauses(); ++i)
    for (Lit l : r.cnf.clause(i))
      EXPECT_LT(l.var(), r.cnf.num_vars());
  EXPECT_EQ(sat::solve_cnf(r.cnf).status, sat::Status::kUnsat);
}

TEST(Simplify, UnsatResultIsCanonicalEmptyClause) {
  Cnf f;
  f.add_vars(2);
  f.add_unit(pos(0));
  f.add_binary(neg(0), pos(1));
  f.add_binary(neg(0), neg(1));
  const auto r = simplify(f);
  EXPECT_TRUE(r.unsat);
  EXPECT_EQ(r.cnf.num_vars(), 0u);
  ASSERT_EQ(r.cnf.num_clauses(), 1u);
  EXPECT_EQ(r.cnf.clause(0).size(), 0u);
}

TEST(Simplify, RemapCompactsVariableRange) {
  Cnf f;
  f.add_vars(6);  // x4 never occurs; x5 is fixed by a unit
  f.add_unit(pos(5));
  f.add_ternary(pos(0), pos(1), pos(2));
  f.add_ternary(neg(0), neg(1), pos(3));
  const auto r = simplify(f);
  ASSERT_FALSE(r.unsat);
  EXPECT_EQ(r.original_vars, 6u);
  EXPECT_LE(r.cnf.num_vars(), 4u);
  EXPECT_EQ(r.var_map[4], SimplifyResult::kUnmapped);
  EXPECT_EQ(r.var_map[5], SimplifyResult::kUnmapped);
  ASSERT_EQ(r.inverse_map.size(), r.cnf.num_vars());
  for (std::uint32_t v = 0; v < r.original_vars; ++v) {
    if (r.var_map[v] != SimplifyResult::kUnmapped) {
      EXPECT_EQ(r.inverse_map[r.var_map[v]], v);
    }
  }
  const auto solved = sat::solve_cnf(r.cnf);
  ASSERT_EQ(solved.status, sat::Status::kSat);
  const auto full = r.extend_model(solved.model);
  ASSERT_EQ(full.size(), 6u);
  EXPECT_TRUE(full[5]);
  EXPECT_TRUE(f.satisfied_by(full));
}

TEST(Simplify, BudgetStopsEarlyButStaysSound) {
  const Cnf f = random_3sat(30, 120, 7);
  SimplifyParams p;
  p.max_resolutions = 1;
  const auto r = simplify(f, p);
  EXPECT_TRUE(r.stats.budget_exhausted);
  const auto direct = sat::solve_cnf(f);
  if (r.unsat) {
    EXPECT_EQ(direct.status, sat::Status::kUnsat);
  } else {
    const auto solved = sat::solve_cnf(r.cnf);
    EXPECT_EQ(solved.status, direct.status);
    if (solved.status == sat::Status::kSat) {
      auto model = solved.model;
      model.resize(f.num_vars());
      EXPECT_TRUE(f.satisfied_by(r.extend_model(model)));
    }
  }
}

TEST(Simplify, IdempotentOnFixpoint) {
  const Cnf f = random_3sat(15, 60, 42);
  const auto r1 = simplify(f);
  const auto r2 = simplify(r1.cnf);
  EXPECT_EQ(r2.cnf.num_clauses(), r1.cnf.num_clauses() + 0u);
  EXPECT_LE(r2.stats.eliminated_vars, 1u);
}

/// Hashes everything simplify produces: as the attached proof tracer it
/// takes in the DRAT step stream, then hash_result() adds the output.
class OutputHash final : public sat::ProofTracer {
 public:
  void add(std::span<const Lit> lits) override {
    word(1);
    clause(lits);
  }
  void remove(std::span<const Lit> lits) override {
    word(2);
    clause(lits);
  }
  void word(std::uint64_t w) {
    h_ = (h_ ^ w) * 0x9E3779B97F4A7C15ULL;
    h_ ^= h_ >> 29;
  }
  void clause(std::span<const Lit> lits) {
    word(lits.size());
    for (Lit l : lits) word(l.x);
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

  /// Output CNF, variable maps, reconstruction stack and step counters
  /// (not the wall clock). An eliminated variable's clauses are hashed as
  /// sorted literal sets, so only their content and order count.
  void hash_result(const SimplifyResult& r) {
    word(r.unsat);
    word(r.original_vars);
    word(r.cnf.num_vars());
    for (std::size_t i = 0; i < r.cnf.num_clauses(); ++i) clause(r.cnf.clause(i));
    for (std::uint32_t v : r.var_map) word(v);
    for (std::uint32_t v : r.inverse_map) word(v);
    using Kind = SimplifyResult::Reconstruction::Kind;
    for (const auto& e : r.stack) {
      word(static_cast<std::uint64_t>(e.kind));
      word(e.var);
      if (e.kind != Kind::kEliminated) {
        word(e.binding.x);
        continue;
      }
      std::vector<std::vector<Lit>> clauses;
      for (std::uint32_t i = e.begin; i < e.end; ++i) {
        const Lit l = r.stack_lits[i];
        if (l.var() == e.var) clauses.emplace_back();
        clauses.back().push_back(l);
      }
      word(clauses.size());
      for (auto& c : clauses) {
        std::sort(c.begin(), c.end());
        clause(c);
      }
    }
    const SimplifyStats& s = r.stats;
    for (std::uint64_t n :
         {s.fixed_units, s.pure_literals, s.eliminated_vars,
          s.subsumed_clauses, s.strengthened_clauses, s.removed_clauses,
          s.resolutions})
      word(n);
  }

 private:
  std::uint64_t h_ = 1469598103934665603ULL;
};

TEST(Simplify, OutputMatchesParentOnGeneratedFamilies) {
  // Golden hash of simplify's whole output on a fixed input set: Tseitin
  // CNFs of the easy training families, two ISOP LUT CNFs from the
  // paper's preprocessor and random 3-SAT around the threshold. It pins
  // the techniques' order, visit order and budget charge points: a change
  // to how the simplifier stores clauses must leave it unchanged, while a
  // change to what it computes must update it knowingly.
  std::vector<Cnf> inputs;
  const auto suite = gen::make_training_suite(48, 7);
  for (const auto& inst : suite) inputs.push_back(tseitin_encode(inst.circuit).cnf);
  for (std::size_t i : {0, 1}) {
    rl::FixedRecipePolicy policy(synth::compress2_recipe());
    inputs.push_back(
        core::Preprocessor().run(suite[i].circuit, policy).encoding_info.cnf);
  }
  for (std::uint64_t seed = 0; seed < 6; ++seed)
    inputs.push_back(random_3sat(80, 340, 500 + seed));

  OutputHash hash;
  for (const Cnf& f : inputs) {
    SimplifyParams p;
    p.proof = &hash;
    const auto r = simplify(f, p);
    ASSERT_FALSE(r.stats.budget_exhausted);
    hash.hash_result(r);
  }
  EXPECT_EQ(hash.value(), 0x68993ea0328e4b54ULL);
}

}  // namespace
}  // namespace csat::cnf
