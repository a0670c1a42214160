#include "core/pipeline.h"

#include <optional>
#include <utility>

#include "cnf/simplify.h"
#include "cnf/tseitin.h"
#include "common/check.h"
#include "common/stopwatch.h"
#include "sat/portfolio.h"
#include "sat/proof.h"

namespace csat::core {

const char* to_string(PipelineMode mode) {
  switch (mode) {
    case PipelineMode::kBaseline:
      return "Baseline";
    case PipelineMode::kComp:
      return "Comp.";
    case PipelineMode::kOurs:
      return "Ours";
    case PipelineMode::kOursRandom:
      return "w/o RL";
    case PipelineMode::kOursAreaMapper:
      return "C. Mapper";
  }
  return "?";
}

const char* to_string(SolveBackend backend) {
  switch (backend) {
    case SolveBackend::kSingle:
      return "single";
    case SolveBackend::kPortfolio:
      return "portfolio";
    case SolveBackend::kCircuit:
      return "circuit";
    case SolveBackend::kCircuitRace:
      return "circuit-race";
  }
  return "?";
}

bool is_circuit_backend(SolveBackend backend) {
  return backend == SolveBackend::kCircuit ||
         backend == SolveBackend::kCircuitRace;
}

namespace {

/// Circuit-native backends: no CNF at all — the solver (or the circuit arm
/// of the race) works on the instance AIG as given. Returns the witness.
std::vector<bool> solve_circuit(const aig::Aig& circuit,
                                const PipelineOptions& options,
                                PipelineResult& result) {
  CSAT_CHECK_MSG(options.proof == nullptr,
                 "circuit backends emit no DRAT stream: learnt constraints "
                 "are derived from implicit gate clauses the checker never "
                 "sees; use backend=single for checkable UNSAT");
  if (options.backend == SolveBackend::kCircuit) {
    sat::CircuitSolver solver(options.solver);
    solver.load(circuit);
    result.status = solver.solve(options.limits);
    result.circuit_stats = solver.stats();
    if (result.status != sat::Status::kSat) return {};
    return solver.witness();
  }
  sat::CircuitRaceOptions ropt;
  ropt.solver = options.solver;
  ropt.limits = options.limits;
  auto r = sat::solve_circuit_race(circuit, ropt);
  result.status = r.status;
  result.circuit_stats = r.circuit_stats;
  result.solver_stats = r.cnf_stats;
  if (r.winner != sat::CircuitRaceResult::Arm::kNone)
    result.portfolio_winner = static_cast<std::size_t>(r.winner);
  return std::move(r.witness);
}

/// CNF backends on the formula as handed to the solver. The portfolio keeps
/// options.solver as its lead config so backends agree on the answer and
/// differ only in wall-clock time. Returns the model (empty unless SAT).
std::vector<bool> solve_cnf_backend(const cnf::Cnf& formula,
                                    const PipelineOptions& options,
                                    sat::ProofTracer* proof,
                                    sat::Solver& solver,
                                    PipelineResult& result) {
  if (options.backend == SolveBackend::kSingle) {
    solver.reset();
    if (proof != nullptr) solver.set_proof(proof);
    solver.add_formula(formula);
    result.status = solver.solve(options.limits);
    solver.set_proof(nullptr);  // the tracer may not outlive this call
    result.solver_stats = solver.stats();
    if (result.status != sat::Status::kSat) return {};
    CSAT_CHECK_MSG(formula.satisfied_by(solver.model()),
                   "solver returned invalid model");
    return solver.model();
  }
  sat::PortfolioOptions popt = sat::make_portfolio_options(
      options.solver, options.portfolio_size, options.limits);
  popt.sharing = options.portfolio_sharing;
  popt.proof = proof;  // non-null => solve_portfolio fails loudly
  auto r = sat::solve_portfolio(formula, popt);
  result.status = r.status;
  result.solver_stats = r.stats;
  result.portfolio_winner = r.winner;
  result.clauses_exported = r.clauses_exported;
  result.clauses_imported = r.clauses_imported;
  return std::move(r.model);
}

PipelineResult run_baseline(const aig::Aig& instance,
                            const PipelineOptions& options,
                            sat::Solver& solver) {
  PipelineResult result;
  Stopwatch watch;
  const auto enc = cnf::tseitin_encode(instance);
  result.ands_before = result.ands_after = instance.num_live_ands();
  result.cnf_vars = enc.cnf.num_vars();
  result.cnf_clauses = enc.cnf.num_clauses();
  result.preprocess_seconds = watch.seconds();
  if (enc.trivially_sat) {
    result.status = sat::Status::kSat;
    result.witness.assign(instance.num_pis(), false);
    return result;
  }
  const auto model = solve_encoded(enc.cnf, nullptr, options, solver, result);
  if (result.status == sat::Status::kSat)
    result.witness = cnf::witness_from_model(instance, enc, model);
  return result;
}

}  // namespace

std::vector<bool> solve_encoded(const cnf::Cnf& formula,
                                const aig::Aig* circuit,
                                const PipelineOptions& options,
                                sat::Solver& solver, PipelineResult& result) {
  Stopwatch watch;
  if (is_circuit_backend(options.backend)) {
    CSAT_CHECK_MSG(circuit != nullptr, "circuit backends need the AIG");
    auto witness = solve_circuit(*circuit, options, result);
    result.solve_seconds = watch.seconds();
    return witness;
  }

  std::optional<cnf::SimplifyResult> simplified;
  const cnf::Cnf* to_solve = &formula;
  sat::ProofTracer* proof = options.proof;
  std::optional<sat::RemapTracer> remap;
  if (options.cnf_simplify) {
    cnf::SimplifyParams sp = options.simplify_params;
    sp.proof = options.proof;
    simplified.emplace(cnf::simplify(formula, sp));
    result.simplified = true;
    result.simplified_vars = simplified->cnf.num_vars();
    result.simplified_clauses = simplified->cnf.num_clauses();
    result.simplify_stats = simplified->stats;
    result.preprocess_seconds += watch.seconds();
    watch.restart();
    if (simplified->unsat) {
      result.status = sat::Status::kUnsat;
      return {};
    }
    to_solve = &simplified->cnf;
    // The simplifier already traced its steps on the original variables;
    // the solver's steps are translated back onto them.
    if (proof != nullptr) {
      remap.emplace(*proof, simplified->inverse_map);
      proof = &*remap;
    }
  }

  auto model = solve_cnf_backend(*to_solve, options, proof, solver, result);
  result.solve_seconds = watch.seconds();
  if (result.status != sat::Status::kSat) return {};
  if (simplified.has_value()) return simplified->extend_model(std::move(model));
  model.resize(formula.num_vars());
  return model;
}

PipelineResult solve_instance(const aig::Aig& instance,
                              const PipelineOptions& options) {
  sat::Solver solver(options.solver);
  if (is_circuit_backend(options.backend)) {
    PipelineResult result;
    result.ands_before = result.ands_after = instance.num_live_ands();
    result.witness =
        solve_encoded(cnf::Cnf{}, &instance, options, solver, result);
    return result;
  }
  if (options.mode == PipelineMode::kBaseline)
    return run_baseline(instance, options, solver);

  // Select the policy and the mapper cost for the preprocessing arm.
  PreprocessOptions popt;
  popt.max_steps = options.max_steps;
  popt.normalize = options.normalize;
  popt.mapper.cost = options.mode == PipelineMode::kComp ||
                             options.mode == PipelineMode::kOursAreaMapper
                         ? lut::CostKind::kArea
                         : lut::CostKind::kBranching;

  rl::FixedRecipePolicy fixed(synth::compress2_recipe());
  rl::RandomPolicy random(options.seed);
  std::optional<rl::DqnPolicy> dqn;
  rl::Policy* policy = &fixed;
  switch (options.mode) {
    case PipelineMode::kComp:
      policy = &fixed;
      break;
    case PipelineMode::kOursRandom:
      policy = &random;
      break;
    case PipelineMode::kOurs:
    case PipelineMode::kOursAreaMapper:
      if (options.agent != nullptr) {
        dqn.emplace(*options.agent);
        policy = &*dqn;
      }
      break;
    case PipelineMode::kBaseline:
      CSAT_CHECK_MSG(false, "unreachable");
  }

  PipelineResult result;
  Stopwatch watch;
  const Preprocessor pre(popt);
  const PreprocessResult p = pre.run(instance, *policy);
  result.preprocess_seconds = watch.seconds();
  result.recipe = p.recipe;
  result.ands_before = p.ands_before;
  result.ands_after = p.ands_after;
  result.num_luts = p.num_luts;
  const cnf::Cnf& formula = p.encoding_info.cnf;
  result.cnf_vars = formula.num_vars();
  result.cnf_clauses = formula.num_clauses();

  if (p.encoding_info.trivially_sat) {
    result.status = sat::Status::kSat;
    result.witness.assign(instance.num_pis(), false);
    return result;
  }
  const auto model = solve_encoded(formula, nullptr, options, solver, result);
  if (result.status == sat::Status::kSat)
    result.witness = lut::witness_from_model(p.netlist, p.encoding_info, model);
  return result;
}

}  // namespace csat::core
