#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

/// \file bench.h
/// Shared pieces of the repository benchmark: workload inputs, the verdict
/// oracle, the result line and small statistics helpers. The benchmark
/// drives csatopt only through its public headers; every timing it reports
/// is taken here, around calls into the library.

#include <cstdint>
#include <string>
#include <vector>

#include "aig/aig.h"
#include "rl/dqn.h"
#include "sat/solver.h"

namespace perfbench {

enum class Workload { kFig4Synth, kFig4Baseline, kServeMixed };

/// Parses a workload name; returns false for an unknown one.
bool parse_workload(const std::string& name, Workload& out);
const char* to_string(Workload workload);

/// One generated instance: a single-output CSAT miter.
struct Item {
  std::string name;
  csat::aig::Aig circuit;
};

// --- inputs (slices.cpp) ---------------------------------------------------

/// The Fig. 4 slice: fixed (family, width, kind) slots drawn from the ranges
/// of gen::make_test_suite; the seed draws each slot's bug site, fault site
/// or random circuit.
std::vector<Item> make_fig4_slice(std::uint64_t seed);

/// serve_mixed instances: the first kServeHot are the repeated hot set, the
/// rest the cycled pool (easy-regime families; see slices.cpp).
inline constexpr std::size_t kServeHot = 24;
inline constexpr std::size_t kServeCycle = 800;
std::vector<Item> make_serve_pool(std::uint64_t seed);

/// The instances whose verdicts the reference covers for \p workload.
std::vector<Item> make_items(Workload workload, std::uint64_t seed);

/// Conflict budget that decides every instance of the workload, and the
/// wall-clock cap kept only as a safety net.
csat::sat::Limits solve_limits(Workload workload);

/// The frozen Ours policy (data/policy.mlp), loaded with DqnAgent::load.
csat::rl::DqnAgent load_policy(const std::string& data_dir);
/// Trains the policy the way bench/fig4_runtime does with --train=20, with
/// fixed seeds.
csat::rl::DqnAgent train_policy();

// --- verdict oracle (oracle.cpp) ---------------------------------------------

struct Reference {
  struct Entry {
    std::string name;
    std::uint64_t hash = 0;  ///< aig::structural_hash of the instance
    csat::sat::Status status = csat::sat::Status::kUnknown;
  };
  std::vector<Entry> entries;
};

/// Solves every item with the Baseline arm, checks each SAT witness by
/// simulation and each UNSAT DRAT proof against the Tseitin CNF. Throws
/// std::runtime_error when an item is undecided or a check fails.
Reference compute_reference(const std::vector<Item>& items,
                            const csat::sat::Limits& limits,
                            std::size_t threads);
void write_reference(const Reference& ref, const std::string& path);
Reference read_reference(const std::string& path);
/// Throws std::runtime_error unless \p ref describes exactly \p items.
void check_reference_matches(const Reference& ref,
                             const std::vector<Item>& items);

/// True when some output of \p g is 1 under \p witness.
bool witness_satisfies(const csat::aig::Aig& g,
                       const std::vector<bool>& witness);

// --- result line -------------------------------------------------------------

/// A measured metric; its unit is the one BENCHMARK.json gives the name.
struct Metric {
  std::string name;
  double value = 0.0;
};

struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// First failure, reported on stderr.
  std::string first_error;

  void fail(const std::string& what) {
    ++failed;
    if (first_error.empty()) first_error = what;
  }
  void add(std::string name, double value) {
    metrics.push_back({std::move(name), value});
  }
};

std::string to_json(const Outcome& outcome);

struct RunOptions {
  Workload workload = Workload::kFig4Synth;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string reference_path;
  std::string data_dir;
  std::string work_dir;
};

Outcome run_fig4(const RunOptions& options);
Outcome run_serve(const RunOptions& options);
/// Measures serve_mixed's capacity (requests per second) as workers over
/// the mean service time of its open-loop stream; used once to fix the
/// phase rates in serve.cpp.
double calibrate_serve(const RunOptions& options);

// --- helpers -----------------------------------------------------------------

/// Nearest-rank percentile (0 < p <= 100) of \p v; 0 when empty.
double percentile(std::vector<double> v, double p);
double median(std::vector<double> v);
/// Peak resident set of this process in MiB.
double peak_rss_mb();
const char* status_name(csat::sat::Status status);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H
