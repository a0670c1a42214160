// End-user CLI tool: run the paper's full preprocessing framework on an
// AIGER instance and emit DIMACS CNF for *any* external CDCL solver — the
// deployment mode the paper targets ("seamlessly integrating with
// state-of-the-art SAT solvers").
//
//   $ ./preprocess_to_dimacs input.aig output.cnf [--mode=ours|comp|baseline]
//                            [--steps=T] [--cnf-simplify]
//
// With no input file a demo instance is generated, preprocessed and
// written to ./demo.cnf.

#include <cstdio>
#include <cstring>
#include <string>

#include "aig/aiger_io.h"
#include "cnf/dimacs.h"
#include "cnf/simplify.h"
#include "cnf/tseitin.h"
#include "core/preprocessor.h"
#include "gen/arith.h"
#include "gen/miter.h"
#include "rl/policy.h"

using namespace csat;

int main(int argc, char** argv) {
  std::string in_path;
  std::string out_path = "demo.cnf";
  std::string mode = "ours";
  int steps = 10;
  bool cnf_simplify = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--mode=", 0) == 0) {
      mode = arg.substr(7);
    } else if (arg.rfind("--steps=", 0) == 0) {
      steps = std::atoi(arg.c_str() + 8);
    } else if (arg == "--cnf-simplify") {
      cnf_simplify = true;
    } else if (in_path.empty()) {
      in_path = arg;
    } else {
      out_path = arg;
    }
  }

  aig::Aig instance;
  if (in_path.empty()) {
    std::printf("no input given; generating a demo LEC miter\n");
    aig::Aig g1, g2;
    {
      const auto a = gen::input_word(g1, 8);
      const auto b = gen::input_word(g1, 8);
      for (aig::Lit l : gen::ripple_carry_add(g1, a, b, aig::kFalse, true))
        g1.add_po(l);
    }
    {
      const auto a = gen::input_word(g2, 8);
      const auto b = gen::input_word(g2, 8);
      for (aig::Lit l : gen::kogge_stone_add(g2, a, b, aig::kFalse, true))
        g2.add_po(l);
    }
    instance = gen::make_miter(g1, g2);
  } else {
    try {
      instance = aig::read_aiger_file(in_path);
    } catch (const aig::AigerError& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
  }
  std::printf("instance: %zu PIs, %zu ANDs, depth %d\n", instance.num_pis(),
              instance.num_ands(), instance.depth());

  cnf::Cnf out_cnf;
  if (mode == "baseline") {
    out_cnf = cnf::tseitin_encode(instance).cnf;
  } else {
    core::PreprocessOptions popt;
    popt.max_steps = steps;
    popt.mapper.cost =
        mode == "comp" ? lut::CostKind::kArea : lut::CostKind::kBranching;
    rl::FixedRecipePolicy policy(synth::compress2_recipe());
    const auto p = core::Preprocessor(popt).run(instance, policy);
    std::printf("preprocessed: %zu -> %zu ANDs, %zu LUTs, recipe:", p.ands_before,
                p.ands_after, p.num_luts);
    for (auto op : p.recipe) std::printf(" %s", std::string(synth::to_string(op)).c_str());
    std::printf("\n");
    out_cnf = p.encoding_info.cnf;
  }

  if (cnf_simplify) {
    const auto s = cnf::simplify(out_cnf);
    std::printf("cnf-simplify: %zu -> %zu clauses (%llu vars eliminated)\n",
                out_cnf.num_clauses(), s.cnf.num_clauses(),
                static_cast<unsigned long long>(s.stats.eliminated_vars));
    out_cnf = s.cnf;
  }

  try {
    cnf::write_dimacs_file(out_cnf, out_path);
  } catch (const cnf::DimacsError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  std::printf("wrote %s: %u vars, %zu clauses (mode=%s)\n", out_path.c_str(),
              out_cnf.num_vars(), out_cnf.num_clauses(), mode.c_str());
  std::printf("solve with e.g.: kissat %s\n", out_path.c_str());
  return 0;
}
