#ifndef CSAT_CORE_BATCH_RUNNER_H
#define CSAT_CORE_BATCH_RUNNER_H

/// \file batch_runner.h
/// Throughput layer over core/pipeline: drain a queue of CSAT instances
/// across a pool of worker threads, one full pipeline run per instance.
///
/// Scheduling is work-stealing-by-counter (an atomic next-instance index),
/// so workers never idle while instances remain. Results land in input
/// order regardless of completion order, and each instance's result is
/// identical to a sequential solve_instance() call with the same options —
/// parallelism changes wall-clock time only. This is the serving shape the
/// ROADMAP's scale goals build on: N instances in flight, M cores busy.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "aig/aig.h"
#include "core/pipeline.h"

namespace csat::core {

struct BatchOptions {
  /// Per-instance pipeline configuration (mode, solver backend, budgets).
  /// Its proof tracer must be null (run_batch checks): one tracer shared by
  /// the workers would interleave their steps.
  PipelineOptions pipeline;
  /// Worker threads; 0 means std::thread::hardware_concurrency(), divided
  /// by portfolio_size when the portfolio backend is selected (each
  /// instance then spawns its own solver threads).
  std::size_t num_workers = 0;
};

struct BatchResult {
  /// Per-instance pipeline results, aligned with the input order.
  std::vector<PipelineResult> results;
  double seconds = 0.0;  ///< wall-clock time of the whole batch
  std::size_t num_sat = 0;
  std::size_t num_unsat = 0;
  /// Per-instance budget exhaustions, plus instances whose pipeline run
  /// threw (their result carries .error). The batch always completes: a
  /// poisoned instance costs its own result, never its worker thread or
  /// siblings' results.
  std::size_t num_unknown = 0;
  /// Clause-sharing totals summed over every instance's portfolio workers
  /// (zero for the single-solver backend or with sharing disabled).
  std::uint64_t clauses_exported = 0;
  std::uint64_t clauses_imported = 0;
};

/// Runs every instance through the configured pipeline on a worker pool.
/// Blocks until the whole batch is done; all spawned threads are joined
/// before returning. \p instances is only read. One-shot by design — for a
/// long-lived streaming pool with per-request budgets and a result cache,
/// see core/solve_server.h.
[[nodiscard]] BatchResult run_batch(const std::vector<aig::Aig>& instances,
                                    const BatchOptions& options = {});

}  // namespace csat::core

#endif  // CSAT_CORE_BATCH_RUNNER_H
