#include "sat/portfolio.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <optional>
#include <thread>

#include "common/check.h"
#include "common/fault.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "cnf/tseitin.h"

namespace csat::sat {

std::vector<SolverConfig> default_portfolio(std::size_t n, std::uint64_t seed) {
  std::vector<SolverConfig> configs;
  configs.reserve(n);
  std::uint64_t state = seed;
  for (std::size_t i = 0; i < n; ++i) {
    SolverConfig c = (i % 2 == 0) ? SolverConfig::kissat_like()
                                  : SolverConfig::cadical_like();
    if (i > 0) {
      c.seed = splitmix64(state) | 1;
      // Alternate saved-phase polarity and inject a light random-decision
      // mix so workers explore different parts of the search space.
      c.default_phase = (i % 4) >= 2;
      if (i >= 2) c.random_decision_freq = 0.01 * static_cast<double>(i / 2);
      if (c.restarts == SolverConfig::Restarts::kLuby)
        c.luby_unit = 64 + 32 * static_cast<std::uint32_t>(i);
    }
    configs.push_back(c);
  }
  return configs;
}

PortfolioOptions make_portfolio_options(const SolverConfig& lead,
                                        std::size_t num_workers,
                                        const Limits& limits) {
  PortfolioOptions options;
  options.configs =
      default_portfolio(std::max<std::size_t>(1, num_workers), lead.seed);
  options.configs[0] = lead;
  options.limits = limits;
  return options;
}

namespace {

/// Per-arm bookkeeping of one race; the arm bodies keep their own results.
struct Race {
  static constexpr std::size_t kNoWinner = PortfolioResult::kNoWinner;

  /// kUnknown = cancelled, out of budget or faulted.
  std::vector<Status> status;
  std::vector<std::uint8_t> faulted;  ///< the arm died on an exception
  std::vector<double> seconds;        ///< wall-clock time each arm ran
  std::size_t winner = kNoWinner;     ///< the elected definitive arm
};

/// The race driver under solve_portfolio and solve_circuit_race. Runs
/// body(i, limits) -> Status for every arm i < n, each on its own thread
/// (inline when n == 1), and joins them all before returning.
///
/// Racing: the first definitive arm claims the win and cancels the others
/// through a shared stop flag wired into the arms' Limits::terminate. The
/// caller's own Limits::terminate keeps working: a watcher folds it into
/// the stop flag. Deterministic: no cancellation (the caller's limits reach
/// the arms untouched) and the lowest-index definitive arm wins, so the
/// outcome is a pure function of the inputs.
///
/// Every arm body is exception-guarded: arms run on bare std::threads,
/// where an escaped exception would std::terminate the process. An arm
/// that throws (allocation failure, injected fault, solver defect) becomes
/// a faulted kUnknown outcome and the race continues on the survivors.
template <typename Body>
Race run_race(std::size_t n, const Limits& limits, bool deterministic,
              const char* what, const Body& body) {
  Race race;
  race.status.assign(n, Status::kUnknown);
  race.faulted.assign(n, 0);
  race.seconds.assign(n, 0.0);

  std::atomic<bool> stop{false};
  std::atomic<std::size_t> winner{Race::kNoWinner};
  const std::atomic<bool>* external = limits.terminate;
  std::thread watcher;
  if (!deterministic && external != nullptr) {
    watcher = std::thread([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        if (external->load(std::memory_order_relaxed)) {
          stop.store(true);
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  }
  Limits arm_limits = limits;
  if (!deterministic) arm_limits.terminate = &stop;

  auto run_arm = [&](std::size_t i) {
    Stopwatch watch;
    try {
      fault::maybe_throw(fault::Point::kWorkerThrow, what);
      race.status[i] = body(i, arm_limits);
      std::size_t expected = Race::kNoWinner;
      if (!deterministic && race.status[i] != Status::kUnknown &&
          winner.compare_exchange_strong(expected, i))
        stop.store(true);
    } catch (...) {
      race.status[i] = Status::kUnknown;
      race.faulted[i] = 1;
    }
    race.seconds[i] = watch.seconds();
  };

  if (n == 1) {
    run_arm(0);
  } else {
    std::vector<std::thread> threads;
    threads.reserve(n);
    for (std::size_t i = 0; i < n; ++i) threads.emplace_back(run_arm, i);
    for (auto& t : threads) t.join();
  }
  stop.store(true);  // release the watcher when no arm ever finished
  if (watcher.joinable()) watcher.join();

  race.winner = winner.load();
  if (deterministic) {
    for (std::size_t i = 0; i < n; ++i) {
      if (race.status[i] != Status::kUnknown) {
        race.winner = i;
        break;
      }
    }
  }
  return race;
}

}  // namespace

PortfolioResult solve_portfolio(const Cnf& formula,
                                const PortfolioOptions& options) {
  const std::vector<SolverConfig> configs =
      options.configs.empty()
          ? default_portfolio(options.num_workers, options.seed)
          : options.configs;
  CSAT_CHECK_MSG(!configs.empty(), "portfolio needs at least one config");
  CSAT_CHECK_MSG(options.proof == nullptr,
                 "proof emission requires the sequential backend: a portfolio "
                 "run's winner depends on a wall-clock race and (with sharing) "
                 "on clauses imported from other workers, neither of which "
                 "yields a checkable single-solver DRAT derivation");
  const std::size_t n = configs.size();

  PortfolioResult result;
  result.workers.resize(n);
  Stopwatch total;
  std::vector<std::vector<bool>> models(n);

  // Clause sharing needs a second worker to talk to, and deterministic
  // mode forbids it (import timing depends on thread scheduling).
  const bool share =
      options.sharing.enabled && n > 1 && !options.deterministic;
  std::optional<ClauseExchange> exchange;
  // Size the ring's flat literal buffer to the widest clause the sharing
  // filter lets through, so no published clause is ever dropped for width.
  if (share) {
    exchange.emplace(options.sharing.ring_capacity,
                     std::max<std::uint32_t>(1, options.sharing.max_size));
  }

  const Race race = run_race(
      n, options.limits, options.deterministic, "portfolio worker",
      [&](std::size_t i, const Limits& limits) {
        Solver solver(configs[i]);
        solver.add_formula(formula);
        if (share) solver.connect_exchange(&*exchange, i, options.sharing);
        const Status status = solver.solve(limits);
        result.workers[i].stats = solver.stats();
        if (status == Status::kSat) models[i] = solver.model();
        return status;
      });

  result.seconds = total.seconds();
  for (std::size_t i = 0; i < n; ++i) {
    WorkerOutcome& w = result.workers[i];
    w.status = race.status[i];
    w.faulted = race.faulted[i] != 0;
    w.seconds = race.seconds[i];
    if (w.faulted) ++result.worker_faults;
    result.clauses_exported += w.stats.exported;
    result.clauses_imported += w.stats.imported;
    result.total_propagations += w.stats.propagations;
    result.total_binary_props += w.stats.binary_props;
    result.total_watcher_relocations += w.stats.watcher_relocations;
    result.total_watch_bytes += w.stats.watch_bytes;
  }
  const std::size_t win = race.winner;
  if (win == Race::kNoWinner) {
    // Budget exhausted with no verdict: report the lead worker's stats so
    // budgeted runs show real search effort, comparable to a single solve
    // of configs[0] under the same limits, instead of zeros.
    result.stats = result.workers[0].stats;
    return result;
  }

  result.winner = win;
  result.status = result.workers[win].status;
  result.stats = result.workers[win].stats;
  result.model = std::move(models[win]);
  if (result.status == Status::kSat)
    CSAT_CHECK_MSG(formula.satisfied_by(result.model),
                   "portfolio winner returned invalid model");
  // Soundness: any other definitive worker must agree with the winner.
  for (const WorkerOutcome& w : result.workers)
    if (w.status != Status::kUnknown)
      CSAT_CHECK_MSG(w.status == result.status,
                     "portfolio workers disagree on SAT/UNSAT");
  return result;
}

namespace {

/// The CNF arm of the circuit race: Tseitin-encode, solve, project any
/// model back onto the PIs (\p witness, left empty unless SAT).
Status run_cnf_arm(const aig::Aig& g, const SolverConfig& config,
                   const Limits& limits, Stats& stats,
                   std::vector<bool>& witness) {
  const cnf::TseitinResult enc = cnf::tseitin_encode(g);
  if (enc.trivially_unsat) return Status::kUnsat;
  if (enc.trivially_sat) {
    // Some PO is constant true: any PI assignment witnesses SAT.
    witness.assign(g.pis().size(), false);
    return Status::kSat;
  }
  Solver solver(config);
  solver.add_formula(enc.cnf);
  const Status status = solver.solve(limits);
  stats = solver.stats();
  if (status == Status::kSat)
    witness = cnf::witness_from_model(g, enc, solver.model());
  return status;
}

}  // namespace

CircuitRaceResult solve_circuit_race(const aig::Aig& g,
                                     const CircuitRaceOptions& options) {
  using Arm = CircuitRaceResult::Arm;
  constexpr auto kCircuit = static_cast<std::size_t>(Arm::kCircuit);
  constexpr auto kCnf = static_cast<std::size_t>(Arm::kCnf);
  CircuitRaceResult result;
  Stopwatch total;
  std::vector<bool> witnesses[2];

  // The circuit arm is index 0, so deterministic mode prefers its verdict.
  const Race race = run_race(
      2, options.limits, options.deterministic, "circuit race arm",
      [&](std::size_t arm, const Limits& limits) {
        if (arm == kCnf)
          return run_cnf_arm(g, options.solver, limits, result.cnf_stats,
                             witnesses[kCnf]);
        CircuitSolver solver(options.solver);
        solver.load(g);
        const Status status = solver.solve(limits);
        result.circuit_stats = solver.stats();
        if (status == Status::kSat) witnesses[kCircuit] = solver.witness();
        return status;
      });

  result.circuit_status = race.status[kCircuit];
  result.cnf_status = race.status[kCnf];
  result.circuit_seconds = race.seconds[kCircuit];
  result.cnf_seconds = race.seconds[kCnf];
  result.arm_faults = race.faulted[kCircuit] + race.faulted[kCnf];
  if (race.winner != Race::kNoWinner) {
    result.winner = static_cast<Arm>(race.winner);
    result.status = race.status[race.winner];
    result.witness = std::move(witnesses[race.winner]);
  }
  // Soundness: when both arms reach a verdict they must agree — the arms
  // decide the same question over different encodings.
  if (result.circuit_status != Status::kUnknown &&
      result.cnf_status != Status::kUnknown)
    CSAT_CHECK_MSG(result.circuit_status == result.cnf_status,
                   "circuit and CNF arms disagree on SAT/UNSAT");
  result.seconds = total.seconds();
  return result;
}

}  // namespace csat::sat
