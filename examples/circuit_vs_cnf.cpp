// Circuit-native backend demo: solve a generated CSAT suite twice — once
// with the circuit CDCL solver working directly on the AIG (implicit gate
// clauses, justification-frontier decisions) and once through the classic
// Tseitin-encode-then-CDCL path — then race both backends per instance with
// sat::solve_circuit_race and report which arm wins where.
//
//   $ ./circuit_vs_cnf [--instances=N] [--seed=S] [--race=on|off]
//
// Exits non-zero if any backend returns UNKNOWN, any circuit verdict
// disagrees with the CNF verdict, any SAT witness fails to drive the miter
// output true, or the suite does not cover both SAT and UNSAT — the two
// backends decide the same question over different encodings, so
// disagreement is a soundness bug, never a tuning artifact.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "aig/simulate.h"
#include "cnf/tseitin.h"
#include "gen/suite.h"
#include "sat/circuit_solver.h"
#include "sat/portfolio.h"
#include "sat/solver.h"

using namespace csat;

namespace {

const char* status_name(sat::Status s) {
  return s == sat::Status::kSat     ? "SAT"
         : s == sat::Status::kUnsat ? "UNSAT"
                                    : "UNKNOWN";
}

/// True iff \p pi_values drives the (single) miter output to 1.
bool po_true(const aig::Aig& g, const std::vector<bool>& pi_values) {
  const std::vector<bool> outs = aig::evaluate(g, pi_values);
  for (const bool o : outs)
    if (o) return true;
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  int instances = 24;
  std::uint64_t seed = 5;
  bool race = true;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--instances=", 0) == 0) {
      instances = std::atoi(arg.c_str() + 12);
      if (instances <= 0) {
        std::fprintf(stderr, "--instances must be > 0\n");
        return 2;
      }
    } else if (arg.rfind("--seed=", 0) == 0) {
      seed = std::strtoull(arg.c_str() + 7, nullptr, 10);
    } else if (arg == "--race=on" || arg == "--race=off") {
      race = arg == "--race=on";
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return 2;
    }
  }

  gen::SuiteParams params;
  params.count = instances;
  params.seed = seed;
  const std::vector<gen::Instance> suite = gen::make_suite(params);

  const sat::SolverConfig cnf_config = sat::SolverConfig::kissat_like();

  std::printf("%-28s %-8s %-8s %12s %12s %10s\n", "instance", "circuit",
              "cnf", "gate-props", "cnf-props", "frontier");
  std::uint64_t circuit_wins = 0, cnf_wins = 0;
  int sat_count = 0, unsat_count = 0;
  int failures = 0;
  for (const gen::Instance& inst : suite) {
    // Circuit backend: no CNF ever exists; the solver assigns AIG nodes.
    const sat::CircuitSolveResult circ =
        sat::solve_circuit(inst.circuit, cnf_config);

    // CNF backend: Tseitin-encode, solve, decode the model back to PIs.
    const cnf::TseitinResult enc = cnf::tseitin_encode(inst.circuit);
    sat::Status cnf_status;
    std::vector<bool> cnf_witness;
    sat::Stats cnf_stats;
    if (enc.trivially_unsat) {
      cnf_status = sat::Status::kUnsat;
    } else if (enc.trivially_sat) {
      cnf_status = sat::Status::kSat;
      cnf_witness.assign(inst.circuit.num_pis(), false);
    } else {
      sat::Solver solver(cnf_config);
      solver.add_formula(enc.cnf);
      cnf_status = solver.solve();
      cnf_stats = solver.stats();
      if (cnf_status == sat::Status::kSat)
        cnf_witness = cnf::witness_from_model(inst.circuit, enc, solver.model());
    }

    std::printf("%-28s %-8s %-8s %12llu %12llu %10llu\n", inst.name.c_str(),
                status_name(circ.status), status_name(cnf_status),
                static_cast<unsigned long long>(circ.stats.gate_propagations),
                static_cast<unsigned long long>(cnf_stats.propagations),
                static_cast<unsigned long long>(circ.stats.max_frontier));

    if (circ.status == sat::Status::kUnknown ||
        cnf_status == sat::Status::kUnknown) {
      std::fprintf(stderr, "FAIL %s: a backend returned UNKNOWN\n",
                   inst.name.c_str());
      ++failures;
      continue;
    }
    if (circ.status != cnf_status) {
      std::fprintf(stderr, "FAIL %s: circuit=%s cnf=%s\n", inst.name.c_str(),
                   status_name(circ.status), status_name(cnf_status));
      ++failures;
      continue;
    }
    if (circ.status == sat::Status::kSat)
      ++sat_count;
    else
      ++unsat_count;
    if (circ.status == sat::Status::kSat &&
        !po_true(inst.circuit, circ.witness)) {
      std::fprintf(stderr, "FAIL %s: circuit witness rejected by the AIG\n",
                   inst.name.c_str());
      ++failures;
    }
    if (cnf_status == sat::Status::kSat &&
        !po_true(inst.circuit, cnf_witness)) {
      std::fprintf(stderr, "FAIL %s: cnf witness rejected by the AIG\n",
                   inst.name.c_str());
      ++failures;
    }

    if (race) {
      sat::CircuitRaceOptions ropt;
      ropt.solver = cnf_config;
      const sat::CircuitRaceResult r =
          sat::solve_circuit_race(inst.circuit, ropt);
      if (r.status != circ.status) {
        std::fprintf(stderr, "FAIL %s: race=%s solo=%s\n", inst.name.c_str(),
                     status_name(r.status), status_name(circ.status));
        ++failures;
      }
      if (r.winner == sat::CircuitRaceResult::Arm::kCircuit)
        ++circuit_wins;
      else if (r.winner == sat::CircuitRaceResult::Arm::kCnf)
        ++cnf_wins;
    }
  }

  if (race) {
    std::printf("\nrace: circuit arm won %llu, cnf arm won %llu of %d\n",
                static_cast<unsigned long long>(circuit_wins),
                static_cast<unsigned long long>(cnf_wins), instances);
  }
  // The generated mix must exercise both verdicts, or the check silently
  // degrades into a one-sided one.
  if (sat_count == 0 || unsat_count == 0) {
    std::fprintf(stderr, "FAIL: suite did not cover both SAT and UNSAT "
                         "(%d SAT / %d UNSAT)\n",
                 sat_count, unsat_count);
    ++failures;
  }
  if (failures != 0) {
    std::fprintf(stderr, "%d failure(s)\n", failures);
    return 1;
  }
  std::printf("all %d instances (%d SAT / %d UNSAT) agree across backends\n",
              instances, sat_count, unsat_count);
  return 0;
}
