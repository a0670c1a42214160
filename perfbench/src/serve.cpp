// serve_mixed: an in-process core::SolveServer fed by one producer thread
// with an open loop of seeded Poisson arrivals at two fixed rates (phases
// lo and hi, sent as interleaved slices).
// Requests are easy-regime instances written as AIGER files at set-up and
// sent as aiger= paths; a seeded share repeats a small hot set (a working
// set far below the cache capacity, so those hit), the rest cycle through a
// pool whose distinct instances outnumber the cache (so those miss), and a
// seeded share asks for the circuit backend. Every number comes from
// outside the server: the response fields, counters() and cache_counters().

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "aig/aiger_io.h"
#include "bench.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "core/solve_server.h"
#include "trace.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;
using csat::Stopwatch;

/// Requests per second the 3-worker server sustains on this mix: workers
/// divided by the mean ServerResponse::seconds of the open-loop stream,
/// measured once with `perfbench calibrate` on a 4-vCPU x86-64 VM (Intel
/// Xeon) and frozen here so every commit is driven at the same rates.
constexpr double kCapacityRps = 1990.0;
constexpr double kLoRps = 0.30 * kCapacityRps;
constexpr double kHiRps = 0.75 * kCapacityRps;
constexpr std::size_t kMinPhaseRequests = 1000;
// The traffic mix is assumed, not taken from a traffic record (the repo
// has none); perfbench/README.md gives the reason for each share.
constexpr double kRepeatShare = 0.2;
constexpr double kCircuitShare = 0.1;
/// LRU entries: about ten times the hot set, well below the pool.
constexpr std::size_t kCacheCapacity = 256;
/// Latency limit behind on_time_frac: a hi-phase request later than this
/// means a backlog is building, far beyond the ~1-3 ms a request costs.
constexpr double kOnTimeLimitMs = 100.0;
constexpr int kSetupReps = 9;
/// Slices per phase; see plan_stream() and segmented().
constexpr std::size_t kSegments = 5;
constexpr double kSliceGapS = 0.05;

struct Planned {
  std::size_t item = 0;
  bool circuit = false;
  bool hi = false;
  double due = 0.0;  ///< seconds after the stream starts
};

/// The open-loop schedule: kSegments rounds, each a lo slice then a hi
/// slice of seeded Poisson arrivals, with an idle gap before every slice so
/// a hi slice's backlog never leaks into the next lo slice. Interleaving
/// the phases spreads a slow spell of the shared machine over both instead
/// of landing on one. Each phase sends at least kMinPhaseRequests and
/// spends about half of \p seconds.
std::vector<Planned> plan_stream(std::uint64_t seed, double seconds) {
  csat::Rng rng(seed ^ 0x5e7e5e7eULL);
  std::vector<Planned> plan;
  std::size_t next_cycle = 0;
  double t = 0.0;
  for (std::size_t round = 0; round < kSegments; ++round) {
    for (const bool hi : {false, true}) {
      const double rate = hi ? kHiRps : kLoRps;
      const auto per_phase = std::max(
          kMinPhaseRequests, static_cast<std::size_t>(rate * seconds / 2.0));
      t += kSliceGapS;
      for (std::size_t k = 0; k < (per_phase + kSegments - 1) / kSegments;
           ++k) {
        t += -std::log(1.0 - rng.next_double()) / rate;
        Planned p;
        p.hi = hi;
        p.due = t;
        p.item = rng.next_double() < kRepeatShare
                     ? rng.next_below(kServeHot)
                     : kServeHot + next_cycle++ % kServeCycle;
        p.circuit = rng.next_double() < kCircuitShare;
        plan.push_back(p);
      }
    }
  }
  return plan;
}

/// One request's response and when it arrived.
struct Observed {
  bool answered = false;
  double latency_ms = 0.0;  ///< from the due time to on_response
  csat::core::ServerResponse response;
};

struct StreamResult {
  std::vector<Observed> observed;
  csat::core::ServerCounters counters;
  csat::core::CacheCounters cache;
  double max_lag_ms = 0.0;
  double wall_s = 0.0;
};

/// Sends \p plan on its due times and waits for every response. With a
/// tracer, each response adds a request span (due time to response) with
/// its service interval as a child.
StreamResult run_stream(const std::vector<Planned>& plan,
                        const std::vector<std::string>& paths,
                        Tracer* tracer) {
  StreamResult res;
  res.observed.resize(plan.size());
  const std::size_t hw = std::max(2U, std::thread::hardware_concurrency());
  Clock::time_point t0;

  csat::core::ServerOptions so;
  so.num_workers = hw - 1;
  so.queue_capacity = plan.size() + 1;  // the producer never blocks
  so.cache_capacity = kCacheCapacity;
  so.default_limits = solve_limits(Workload::kServeMixed);
  // on_response calls are serialized by the server, so the tracer and the
  // observed slots need no lock of their own.
  so.on_response = [&](const csat::core::ServerResponse& r) {
    const auto now = Clock::now();
    const std::size_t j = std::stoul(r.id);
    const auto due = t0 + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(plan[j].due));
    Observed& o = res.observed[j];
    o.answered = true;
    o.latency_ms = std::chrono::duration<double, std::milli>(now - due).count();
    o.response = r;
    if (tracer != nullptr) {
      const double end = tracer->now();
      const auto span = tracer->record("server.request", kNoParent, j,
                                       end - o.latency_ms / 1e3, end);
      tracer->record("server.service", span, j, end - r.seconds, end);
    }
  };

  csat::core::SolveServer server(so);
  server.start();
  t0 = Clock::now() + std::chrono::milliseconds(20);
  for (std::size_t j = 0; j < plan.size(); ++j) {
    const auto due = t0 + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(plan[j].due));
    std::this_thread::sleep_until(due);
    res.max_lag_ms = std::max(
        res.max_lag_ms,
        std::chrono::duration<double, std::milli>(Clock::now() - due).count());
    csat::core::ServerRequest req;
    req.id = std::to_string(j);
    req.instance = csat::core::ServerRequest::Instance::kAigerFile;
    req.payload = paths[plan[j].item];
    req.backend = plan[j].circuit ? csat::core::SolveBackend::kCircuit
                                  : csat::core::SolveBackend::kSingle;
    if (!server.submit(std::move(req)))
      throw std::runtime_error("server refused a submission");
  }
  server.drain();
  res.wall_s = std::chrono::duration<double>(Clock::now() - t0).count();
  res.counters = server.counters();
  res.cache = server.cache_counters();
  server.stop();
  return res;
}

/// Empty when the response is a clean verdict that agrees with \p ref.
std::string problem(const Observed& o, const Reference::Entry& ref) {
  const auto& r = o.response;
  if (!o.answered) return ref.name + ": unanswered";
  if (!r.error.empty()) return ref.name + ": error: " + r.error;
  if (r.overloaded) return ref.name + ": overloaded";
  if (r.timed_out) return ref.name + ": timed out";
  if (r.status != ref.status)
    return ref.name + ": " + status_name(r.status) + ", reference says " +
           status_name(ref.status);
  return {};
}

/// Checks the server's own counters and every response against the
/// reference; failures go to \p out.
void check_stream(const StreamResult& res, const std::vector<Planned>& plan,
                  const Reference& ref, Outcome& out) {
  if (res.counters.completed != plan.size())
    out.fail("server completed " + std::to_string(res.counters.completed) +
             " of " + std::to_string(plan.size()) + " requests");
  if (res.counters.unexpected_errors != 0)
    out.fail("server counted " +
             std::to_string(res.counters.unexpected_errors) +
             " unexpected errors");
  for (std::size_t j = 0; j < plan.size(); ++j) {
    ++out.attempted;
    const std::string err = problem(res.observed[j], ref.entries[plan[j].item]);
    if (!err.empty()) out.fail("request " + std::to_string(j) + " " + err);
  }
}

/// The median, over the kSegments slices of one phase (\p v holds the
/// phase's samples in due order, slices are equal runs of it), of each
/// slice's percentile \p pct: a slow spell of the shared machine moves one
/// or two slices, not the reported figure.
double segmented(const std::vector<double>& v, double pct) {
  std::vector<double> per_slice;
  for (std::size_t k = 0; k < kSegments; ++k) {
    const std::vector<double> slice(
        v.begin() + static_cast<std::ptrdiff_t>(k * v.size() / kSegments),
        v.begin() +
            static_cast<std::ptrdiff_t>((k + 1) * v.size() / kSegments));
    per_slice.push_back(pct == 50 ? median(slice) : percentile(slice, pct));
  }
  return median(per_slice);
}

/// One stream's figures, per phase where the metric is per phase.
struct Summary {
  double busy_s = 0.0;  ///< sum of ServerResponse::seconds
  std::vector<double> lat[2], wait[2], service[2];  ///< [lo, hi], due order
  /// Share of hi-phase requests answered correctly within kOnTimeLimitMs.
  double hi_on_time_frac = 0.0;
  /// Cache hits and requests, [hot-set repeats, cycled pool].
  double hits[2] = {0.0, 0.0}, requests[2] = {0.0, 0.0};
  std::vector<double> circuit_ms;  ///< service of circuit-backend solves
  std::map<std::string, double> layers;  ///< serve.* counters of real solves
};

Summary summarize(const StreamResult& res, const std::vector<Planned>& plan,
                  const Reference& ref) {
  Summary s;
  for (const char* name :
       {"serve.cnf.tseitin.vars", "serve.cnf.tseitin.clauses",
        "serve.cnf.simplify.self_s", "serve.cnf.simplify.clauses_in",
        "serve.cnf.simplify.clauses_out", "serve.sat.solve.conflicts",
        "serve.sat.solve.decisions", "sat.circuit.gate_props"})
    s.layers[name] = 0.0;
  for (std::size_t j = 0; j < plan.size(); ++j) {
    const Observed& o = res.observed[j];
    const auto& r = o.response;
    const int phase = plan[j].hi ? 1 : 0;
    const double service_ms = 1e3 * r.seconds;
    const bool clean = problem(o, ref.entries[plan[j].item]).empty();
    s.busy_s += r.seconds;
    s.lat[phase].push_back(o.latency_ms);
    s.wait[phase].push_back(o.latency_ms - service_ms);
    s.service[phase].push_back(service_ms);
    if (plan[j].hi && clean && o.latency_ms <= kOnTimeLimitMs)
      s.hi_on_time_frac += 1.0;
    const int kind = plan[j].item < kServeHot ? 0 : 1;
    s.requests[kind] += 1.0;
    if (std::string(r.cache) == "hit") s.hits[kind] += 1.0;
    if (!clean || std::string(r.cache) == "hit") continue;  // real solves only
    s.layers["serve.cnf.tseitin.vars"] += static_cast<double>(r.vars);
    s.layers["serve.cnf.tseitin.clauses"] += static_cast<double>(r.clauses);
    if (r.circuit_backend) {
      s.circuit_ms.push_back(service_ms);
      s.layers["sat.circuit.gate_props"] +=
          static_cast<double>(r.circuit_stats.gate_propagations);
    } else {
      s.layers["serve.sat.solve.conflicts"] +=
          static_cast<double>(r.stats.conflicts);
      s.layers["serve.sat.solve.decisions"] +=
          static_cast<double>(r.stats.decisions);
    }
    if (r.simplify_enabled) {
      s.layers["serve.cnf.simplify.self_s"] += r.simplify_stats.seconds;
      s.layers["serve.cnf.simplify.clauses_in"] +=
          static_cast<double>(r.clauses);
      s.layers["serve.cnf.simplify.clauses_out"] +=
          static_cast<double>(r.simplified_clauses);
    }
  }
  s.hi_on_time_frac /= static_cast<double>(s.lat[1].size());
  return s;
}

/// The pool's instances as binary AIGER files' contents.
std::vector<std::string> encode_pool(const std::vector<Item>& pool) {
  std::vector<std::string> files;
  files.reserve(pool.size());
  for (const Item& item : pool) {
    std::ostringstream out;
    csat::aig::write_aiger_binary(item.circuit, out);
    files.push_back(std::move(out).str());
  }
  return files;
}

std::vector<std::string> write_pool(const std::vector<std::string>& files,
                                    const std::string& dir) {
  std::filesystem::create_directories(dir);
  std::vector<std::string> paths;
  paths.reserve(files.size());
  for (std::size_t i = 0; i < files.size(); ++i) {
    paths.push_back(dir + "/p" + std::to_string(i) + ".aig");
    std::ofstream out(paths.back(), std::ios::binary);
    out << files[i];
    if (!out.flush())
      throw std::runtime_error("cannot write " + paths.back());
  }
  return paths;
}

}  // namespace

Outcome run_serve(const RunOptions& options) {
  // setup_s times generating the pool and encoding it as AIGER; writing
  // the files is left out, as its time is the filesystem's, not the
  // program's.
  std::vector<double> setup_times;
  std::vector<Item> pool;
  std::vector<std::string> files;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    Stopwatch watch;
    pool = make_serve_pool(options.seed);
    files = encode_pool(pool);
    setup_times.push_back(watch.seconds());
  }
  const auto paths = write_pool(
      files, options.work_dir + "/serve_" + std::to_string(options.seed));
  const Reference ref = read_reference(options.reference_path);
  check_reference_matches(ref, pool);
  const auto plan = plan_stream(options.seed, options.seconds);

  Outcome out;
  const StreamResult untraced = run_stream(plan, paths, nullptr);
  check_stream(untraced, plan, ref, out);
  const Summary u = summarize(untraced, plan, ref);
  std::fprintf(stderr,
               "serve: %zu requests in %.2fs, max generator lag %.2fms, "
               "lo p50 %.3fms p99 %.3fms, hi p50 %.3fms p99 %.3fms, "
               "busy %.3fs\n",
               plan.size(), untraced.wall_s, untraced.max_lag_ms,
               segmented(u.lat[0], 50), segmented(u.lat[0], 99),
               segmented(u.lat[1], 50), segmented(u.lat[1], 99), u.busy_s);

  if (!options.trace) {
    out.add("total_s", u.busy_s);
    out.add("on_time_frac", u.hi_on_time_frac);
    out.add("setup_s", median(setup_times));
    out.add("peak_rss_mb", peak_rss_mb());
    return out;
  }

  Tracer tracer;
  const StreamResult traced = run_stream(plan, paths, &tracer);
  check_stream(traced, plan, ref, out);
  const Summary t = summarize(traced, plan, ref);
  const char* phase_name[2] = {"lo", "hi"};
  for (int ph = 0; ph < 2; ++ph) {
    const std::string p = phase_name[ph];
    out.add(p + ".lat_ms.p50", segmented(t.lat[ph], 50));
    out.add(p + ".lat_ms.p99", segmented(t.lat[ph], 99));
    out.add(p + ".server.queue_wait_ms.p50", segmented(t.wait[ph], 50));
    out.add(p + ".server.queue_wait_ms.p99", segmented(t.wait[ph], 99));
    out.add(p + ".server.service_ms.p50", segmented(t.service[ph], 50));
    out.add(p + ".server.service_ms.p99", segmented(t.service[ph], 99));
  }
  const auto lookups =
      static_cast<double>(traced.cache.hits + traced.cache.misses);
  out.add("server.cache.hits", static_cast<double>(traced.cache.hits));
  out.add("server.cache.lookups", lookups);
  out.add("server.cache.hit_ratio",
          lookups > 0 ? static_cast<double>(traced.cache.hits) / lookups : 0.0);
  out.add("server.cache.hit_ratio.hot", t.hits[0] / t.requests[0]);
  out.add("server.cache.hit_ratio.cycle", t.hits[1] / t.requests[1]);
  out.add("server.gen_lag_ms.max", traced.max_lag_ms);
  for (const auto& [name, value] : t.layers) out.add(name, value);
  out.add("sat.circuit.service_ms.p50", median(t.circuit_ms));
  out.add("trace.overhead_s", t.busy_s - u.busy_s);
  const std::string trace_path = options.work_dir + "/trace_serve_mixed_" +
                                 std::to_string(options.seed) + ".json";
  if (!tracer.write_json(trace_path))
    throw std::runtime_error("cannot write " + trace_path);
  return out;
}

double calibrate_serve(const RunOptions& options) {
  const auto pool = make_serve_pool(options.seed);
  const auto paths =
      write_pool(encode_pool(pool), options.work_dir + "/serve_" +
                                        std::to_string(options.seed));
  // The open-loop stream itself, so the cache and singleflight behave as
  // in a run: each response's seconds is the time it held a worker, and the
  // workers can hold requests for at most workers seconds per second.
  const auto plan = plan_stream(options.seed, 25.0);
  const StreamResult res = run_stream(plan, paths, nullptr);
  double busy_s = 0.0;
  for (const Observed& o : res.observed) busy_s += o.response.seconds;
  const double mean_s = busy_s / static_cast<double>(plan.size());
  const double workers =
      std::max(2U, std::thread::hardware_concurrency()) - 1.0;
  std::fprintf(stderr,
               "mean service %.4f ms over %zu requests, %g workers; at the "
               "frozen rates lo is %.0f%% and hi %.0f%% busy\n",
               1e3 * mean_s, plan.size(), workers,
               100.0 * kLoRps * mean_s / workers,
               100.0 * kHiRps * mean_s / workers);
  return workers / mean_s;
}

}  // namespace perfbench
