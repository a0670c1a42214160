#include "core/batch_runner.h"

#include <algorithm>
#include <atomic>
#include <thread>

#include "common/check.h"
#include "common/stopwatch.h"

namespace csat::core {

BatchResult run_batch(const std::vector<aig::Aig>& instances,
                      const BatchOptions& options) {
  BatchResult batch;
  batch.results.resize(instances.size());
  if (instances.empty()) return batch;
  CSAT_CHECK_MSG(options.pipeline.proof == nullptr,
                 "run_batch: PipelineOptions::proof must be null — one "
                 "tracer shared by the workers would interleave their "
                 "steps; solve each instance with solve_instance() to get "
                 "its proof");

  std::size_t workers = options.num_workers;
  if (workers == 0) {
    workers = std::max<std::size_t>(1, std::thread::hardware_concurrency());
    // Each portfolio instance already fans out portfolio_size solver
    // threads; shrink the pool so the default doesn't oversubscribe.
    if (options.pipeline.backend == SolveBackend::kPortfolio) {
      workers = std::max<std::size_t>(
          1, workers / std::max<std::size_t>(1, options.pipeline.portfolio_size));
    } else if (options.pipeline.backend == SolveBackend::kCircuitRace) {
      // The race runs two solver threads (circuit + CNF) per instance.
      workers = std::max<std::size_t>(1, workers / 2);
    }
  }
  workers = std::min(workers, instances.size());

  Stopwatch total;
  std::atomic<std::size_t> next{0};

  auto drain = [&]() {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= instances.size()) return;
      // Per-instance crash isolation: drain() runs on bare std::threads,
      // where an escaped exception would std::terminate the process and an
      // early return would silently drop every remaining instance. A throw
      // costs exactly one result (kUnknown + .error) and the drain goes on.
      try {
        batch.results[i] = solve_instance(instances[i], options.pipeline);
      } catch (const std::exception& e) {
        batch.results[i] = PipelineResult{};
        batch.results[i].error = e.what();
      } catch (...) {
        batch.results[i] = PipelineResult{};
        batch.results[i].error = "non-standard exception";
      }
    }
  };

  if (workers == 1) {
    drain();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) pool.emplace_back(drain);
    for (auto& t : pool) t.join();
  }

  batch.seconds = total.seconds();
  for (const PipelineResult& r : batch.results) {
    batch.clauses_exported += r.clauses_exported;
    batch.clauses_imported += r.clauses_imported;
    switch (r.status) {
      case sat::Status::kSat:
        ++batch.num_sat;
        break;
      case sat::Status::kUnsat:
        ++batch.num_unsat;
        break;
      case sat::Status::kUnknown:
        ++batch.num_unknown;
        break;
    }
  }
  return batch;
}

}  // namespace csat::core
