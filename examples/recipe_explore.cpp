// Recipe exploration: shows how different synthesis recipes reshape one
// CSAT instance and what that does to the mapped netlist and the solver's
// branching effort. Also demonstrates AIGER I/O: pass a combinational
// .aag/.aig file to analyse your own instance.
//
//   $ ./recipe_explore [file.aig]

#include <cstdio>

#include "aig/aiger_io.h"
#include "cnf/tseitin.h"
#include "core/preprocessor.h"
#include "gen/arith.h"
#include "gen/miter.h"
#include "rl/policy.h"
#include "sat/solver.h"

using namespace csat;

namespace {

aig::Aig default_instance() {
  // Commuted 5x5 multiplier equivalence miter: hard enough to be
  // interesting, small enough to iterate on.
  aig::Aig m1, m2;
  {
    const auto a = gen::input_word(m1, 5);
    const auto b = gen::input_word(m1, 5);
    for (aig::Lit l : gen::array_multiply(m1, a, b)) m1.add_po(l);
  }
  {
    const auto a = gen::input_word(m2, 5);
    const auto b = gen::input_word(m2, 5);
    for (aig::Lit l : gen::shift_add_multiply(m2, b, a)) m2.add_po(l);
  }
  return gen::make_miter(m1, m2);
}

void report(const char* name, const aig::Aig& instance,
            const std::vector<synth::SynthOp>& recipe,
            lut::CostKind cost) {
  core::PreprocessOptions popt;
  popt.max_steps = 10;
  popt.mapper.cost = cost;
  rl::FixedRecipePolicy policy(recipe);
  const auto p = core::Preprocessor(popt).run(instance, policy);

  sat::Limits limits;
  limits.max_conflicts = 500000;
  const auto r = sat::solve_cnf(p.encoding_info.cnf, sat::SolverConfig::kissat_like(), limits);
  std::printf("%-26s ands %5zu->%-5zu luts %5zu clauses %6zu  decisions %8llu  %s\n",
              name, p.ands_before, p.ands_after, p.num_luts,
              p.encoding_info.cnf.num_clauses(),
              static_cast<unsigned long long>(r.stats.decisions),
              r.status == sat::Status::kSat     ? "SAT"
              : r.status == sat::Status::kUnsat ? "UNSAT"
                                                : "UNKNOWN");
}

}  // namespace

int main(int argc, char** argv) {
  aig::Aig instance;
  if (argc > 1) {
    try {
      instance = aig::read_aiger_file(argv[1]);
      std::printf("loaded %s: %zu PIs, %zu ANDs, %zu POs\n", argv[1],
                  instance.num_pis(), instance.num_ands(), instance.num_pos());
    } catch (const aig::AigerError& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
  } else {
    instance = default_instance();
    std::printf("default instance (commuted 5x5 multiplier miter): %zu ANDs\n",
                instance.num_ands());
  }

  // Baseline branching effort for reference.
  {
    const auto enc = cnf::tseitin_encode(instance);
    sat::Limits limits;
    limits.max_conflicts = 500000;
    const auto r =
        sat::solve_cnf(enc.cnf, sat::SolverConfig::kissat_like(), limits);
    std::printf("%-26s ands %5zu         clauses %6zu  decisions %8llu\n\n",
                "tseitin baseline", instance.num_live_ands(),
                enc.cnf.num_clauses(),
                static_cast<unsigned long long>(r.stats.decisions));
  }

  using synth::SynthOp;
  report("empty recipe", instance, {}, lut::CostKind::kBranching);
  report("balance only", instance, {SynthOp::kBalance}, lut::CostKind::kBranching);
  report("rewrite x3", instance,
         {SynthOp::kRewrite, SynthOp::kRewrite, SynthOp::kRewrite},
         lut::CostKind::kBranching);
  report("compress2", instance, synth::compress2_recipe(),
         lut::CostKind::kBranching);
  report("compress2 + area mapper", instance, synth::compress2_recipe(),
         lut::CostKind::kArea);

  std::printf("\n(compare the last two rows: identical synthesis, different "
              "mapping cost — the paper's Section III-C effect)\n");
  return 0;
}
