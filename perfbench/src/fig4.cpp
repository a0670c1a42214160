// The two Fig. 4 workloads. fig4_synth runs the Comp. and Ours arms one
// after the other on the slice; fig4_baseline runs the Baseline arm on the
// same slice and is the control for preprocessing changes: it never calls
// synth, rl or lut.
//
// Untraced runs time each core::solve_instance call from outside. Traced
// runs add a replica of Preprocessor::run + solve_instance assembled from
// the same public calls, with a span around each call; the replica must
// reproduce the untraced result (recipe, CNF size, conflicts, verdict)
// before its numbers are reported.

#include <cstdio>
#include <map>
#include <optional>
#include <stdexcept>

#include "bench.h"
#include "cnf/simplify.h"
#include "cnf/tseitin.h"
#include "common/stopwatch.h"
#include "core/pipeline.h"
#include "lut/lut_to_cnf.h"
#include "lut/mapper.h"
#include "rl/embedding.h"
#include "rl/features.h"
#include "rl/policy.h"
#include "synth/recipe.h"
#include "trace.h"

namespace perfbench {

namespace {

using csat::Stopwatch;
using csat::sat::Status;

/// Per-instance limit behind on_time_frac: the default timeout charge of
/// bench/fig4_runtime.
constexpr double kOnTimeLimitS = 10.0;
/// Set-up repetitions per burst; see run_fig4().
constexpr int kSetupReps = 5;
/// Synthesis horizon T, as in bench/fig4_runtime and the policy's training.
constexpr int kMaxSteps = 6;

enum class Arm { kBaseline, kComp, kOurs };

const char* prefix(Arm arm) {
  switch (arm) {
    case Arm::kBaseline:
      return "baseline";
    case Arm::kComp:
      return "comp";
    case Arm::kOurs:
      return "ours";
  }
  return "?";
}

const char* op_name(csat::synth::SynthOp op) {
  switch (op) {
    case csat::synth::SynthOp::kRewrite:
      return "rw";
    case csat::synth::SynthOp::kRefactor:
      return "rf";
    case csat::synth::SynthOp::kBalance:
      return "b";
    case csat::synth::SynthOp::kResub:
      return "rs";
    case csat::synth::SynthOp::kEnd:
      return "end";
  }
  return "?";
}

csat::core::PipelineOptions arm_options(Arm arm,
                                        const csat::sat::Limits& limits,
                                        const csat::rl::DqnAgent* agent) {
  csat::core::PipelineOptions o;
  o.mode = arm == Arm::kBaseline ? csat::core::PipelineMode::kBaseline
           : arm == Arm::kComp   ? csat::core::PipelineMode::kComp
                                 : csat::core::PipelineMode::kOurs;
  o.limits = limits;
  o.agent = agent;
  o.max_steps = kMaxSteps;
  return o;
}

/// What the untraced call and the traced replica must agree on.
struct Solved {
  Status status = Status::kUnknown;
  std::vector<csat::synth::SynthOp> recipe;
  std::size_t cnf_vars = 0;
  std::size_t cnf_clauses = 0;
  std::uint64_t conflicts = 0;
  std::vector<bool> witness;
  double seconds = 0.0;

  [[nodiscard]] bool same_run(const Solved& o) const {
    return status == o.status && recipe == o.recipe &&
           cnf_vars == o.cnf_vars && cnf_clauses == o.cnf_clauses &&
           conflicts == o.conflicts;
  }
};

std::string recipe_text(const std::vector<csat::synth::SynthOp>& recipe) {
  std::string s;
  for (auto op : recipe) s += std::string(s.empty() ? "" : ",") + op_name(op);
  return s.empty() ? "-" : s;
}

Solved solve_untraced(const Item& item, const csat::core::PipelineOptions& o) {
  Stopwatch watch;
  auto r = csat::core::solve_instance(item.circuit, o);
  Solved s;
  s.seconds = watch.seconds();
  s.status = r.status;
  s.recipe = std::move(r.recipe);
  s.cnf_vars = r.cnf_vars;
  s.cnf_clauses = r.cnf_clauses;
  s.conflicts = r.solver_stats.conflicts;
  s.witness = std::move(r.witness);
  return s;
}

/// Layer counters of a traced pass, keyed by metric name.
using Counters = std::map<std::string, double>;

/// simplify -> solve -> model reconstruction, shared by every arm's replica.
/// Returns the model on the encoded CNF's variables (empty unless SAT).
std::vector<bool> traced_simplify_solve(const csat::cnf::Cnf& cnf,
                                        const csat::core::PipelineOptions& o,
                                        const std::string& p, Tracer& t,
                                        std::int64_t root, std::uint64_t id,
                                        Counters& c, Solved& s) {
  std::optional<csat::cnf::SimplifyResult> simp;
  {
    Tracer::Scope span(t, p + ".cnf.simplify", root, id);
    simp.emplace(csat::cnf::simplify(cnf, o.simplify_params));
  }
  c[p + ".cnf.simplify.clauses_in"] += static_cast<double>(cnf.num_clauses());
  c[p + ".cnf.simplify.clauses_out"] +=
      static_cast<double>(simp->cnf.num_clauses());
  if (simp->unsat) {
    s.status = Status::kUnsat;
    return {};
  }
  csat::sat::SolveResult r;
  {
    Tracer::Scope span(t, p + ".sat.solve", root, id);
    r = csat::sat::solve_cnf(simp->cnf, o.solver, o.limits);
  }
  c[p + ".sat.solve.conflicts"] += static_cast<double>(r.stats.conflicts);
  c[p + ".sat.solve.decisions"] += static_cast<double>(r.stats.decisions);
  c[p + ".sat.propagations"] += static_cast<double>(r.stats.propagations);
  s.status = r.status;
  s.conflicts = r.stats.conflicts;
  if (r.status != Status::kSat) return {};
  return simp->extend_model(std::move(r.model));
}

/// Replica of core::solve_instance for the Baseline arm.
Solved traced_baseline(const Item& item, const csat::core::PipelineOptions& o,
                       Tracer& t, std::int64_t root, std::uint64_t id,
                       Counters& c) {
  const std::string p = "baseline";
  Solved s;
  std::optional<csat::cnf::TseitinResult> enc;
  {
    Tracer::Scope span(t, p + ".cnf.tseitin", root, id);
    enc.emplace(csat::cnf::tseitin_encode(item.circuit));
  }
  s.cnf_vars = enc->cnf.num_vars();
  s.cnf_clauses = enc->cnf.num_clauses();
  c[p + ".cnf.tseitin.vars"] += static_cast<double>(s.cnf_vars);
  c[p + ".cnf.tseitin.clauses"] += static_cast<double>(s.cnf_clauses);
  if (enc->trivially_sat) {
    s.status = Status::kSat;
    s.witness.assign(item.circuit.num_pis(), false);
    return s;
  }
  const auto model =
      traced_simplify_solve(enc->cnf, o, p, t, root, id, c, s);
  if (s.status == Status::kSat)
    s.witness = csat::cnf::witness_from_model(item.circuit, *enc, model);
  return s;
}

/// Replica of Preprocessor::run + core::solve_instance for Comp. and Ours.
Solved traced_synth(const Item& item, Arm arm,
                    const csat::core::PipelineOptions& o, Tracer& t,
                    std::int64_t root, std::uint64_t id, Counters& c) {
  const std::string p = prefix(arm);
  Solved s;
  csat::rl::FixedRecipePolicy fixed(csat::synth::compress2_recipe());
  std::optional<csat::rl::DqnPolicy> dqn;
  csat::rl::Policy* policy = &fixed;
  if (arm == Arm::kOurs) {
    if (o.agent == nullptr) throw std::logic_error("Ours needs the policy");
    dqn.emplace(*o.agent);
    policy = &*dqn;
  }
  csat::lut::MapperParams mapper;
  mapper.cost = arm == Arm::kComp ? csat::lut::CostKind::kArea
                                  : csat::lut::CostKind::kBranching;

  csat::aig::Aig g0;
  {
    Tracer::Scope span(t, p + ".aig.normalize", root, id);
    g0 = csat::aig::cleanup_copy(item.circuit);
    if (o.normalize)
      g0 = csat::synth::apply_recipe(g0, csat::synth::normalization_recipe());
  }
  c[p + ".aig.normalize.ands_out"] += static_cast<double>(g0.num_ands());
  std::vector<double> embedding;
  {
    Tracer::Scope span(t, p + ".rl.infer", root, id);
    embedding = csat::rl::functional_embedding(g0);
  }
  c[p + ".rl.infer.calls"] += 1;
  csat::aig::Aig g;
  {
    Tracer::Scope span(t, p + ".aig.normalize", root, id);
    g = csat::aig::cleanup_copy(g0);
  }
  policy->begin();
  for (int step = 0; step < o.max_steps; ++step) {
    csat::synth::SynthOp action;
    {
      Tracer::Scope span(t, p + ".rl.infer", root, id);
      std::vector<double> state = csat::rl::extract_features(g, g0);
      state.insert(state.end(), embedding.begin(), embedding.end());
      action = policy->next_op(state);
    }
    c[p + ".rl.infer.calls"] += 1;
    if (action == csat::synth::SynthOp::kEnd) break;
    const std::string op = p + ".synth." + op_name(action);
    const auto before = static_cast<double>(g.num_ands());
    {
      Tracer::Scope span(t, op, root, id);
      g = csat::synth::apply_op(g, action);
    }
    c[op + ".calls"] += 1;
    c[op + ".ands_removed"] += before - static_cast<double>(g.num_ands());
    s.recipe.push_back(action);
  }

  std::optional<csat::lut::MappingResult> mapped;
  {
    Tracer::Scope span(t, p + ".lut.map", root, id);
    mapped.emplace(csat::lut::map_to_luts(g, mapper));
  }
  c[p + ".lut.map.luts"] += static_cast<double>(mapped->num_luts);
  c[p + ".lut.map.branching"] += static_cast<double>(mapped->total_branching);
  std::optional<csat::lut::LutCnfResult> enc;
  {
    Tracer::Scope span(t, p + ".lut.encode", root, id);
    enc.emplace(csat::lut::lut_to_cnf(mapped->netlist));
  }
  s.cnf_vars = enc->cnf.num_vars();
  s.cnf_clauses = enc->cnf.num_clauses();
  c[p + ".lut.encode.vars"] += static_cast<double>(s.cnf_vars);
  c[p + ".lut.encode.clauses"] += static_cast<double>(s.cnf_clauses);
  if (enc->trivially_sat) {
    s.status = Status::kSat;
    s.witness.assign(item.circuit.num_pis(), false);
    return s;
  }
  const auto model = traced_simplify_solve(enc->cnf, o, p, t, root, id, c, s);
  if (s.status == Status::kSat)
    s.witness = csat::lut::witness_from_model(mapped->netlist, *enc, model);
  return s;
}

Solved solve_traced(const Item& item, Arm arm,
                    const csat::core::PipelineOptions& o, Tracer& t,
                    std::uint64_t id, Counters& c) {
  const double start = t.now();
  Tracer::Scope root(t, std::string(prefix(arm)) + ".instance", kNoParent, id);
  Solved s = arm == Arm::kBaseline
                 ? traced_baseline(item, o, t, root.id(), id, c)
                 : traced_synth(item, arm, o, t, root.id(), id, c);
  s.seconds = t.now() - start;
  return s;
}

/// Empty when the verdict agrees with the reference and a SAT witness
/// simulates to 1 on the original instance.
std::string verify(const Item& item, const Reference::Entry& ref,
                   const Solved& s) {
  if (s.status != ref.status)
    return item.name + ": " + status_name(s.status) + ", reference says " +
           status_name(ref.status);
  if (s.status == Status::kSat && !witness_satisfies(item.circuit, s.witness))
    return item.name + ": SAT witness does not simulate to 1";
  return {};
}

}  // namespace

Outcome run_fig4(const RunOptions& options) {
  const bool synth = options.workload == Workload::kFig4Synth;
  const std::vector<Arm> arms =
      synth ? std::vector<Arm>{Arm::kComp, Arm::kOurs}
            : std::vector<Arm>{Arm::kBaseline};

  // Set-up is instance generation and policy loading. It takes ~10 ms, so
  // one burst of repetitions would sample a single moment of the shared
  // machine; bursts before the first pass and after every pass spread the
  // samples over the run, and setup_s is their median.
  std::vector<double> setup_times;
  auto time_setup = [&] {
    for (int rep = 0; rep < kSetupReps; ++rep) {
      Stopwatch watch;
      const auto timed_slice = make_fig4_slice(options.seed);
      if (synth) (void)load_policy(options.data_dir);
      setup_times.push_back(watch.seconds());
    }
  };
  time_setup();
  const std::vector<Item> slice = make_fig4_slice(options.seed);
  std::optional<csat::rl::DqnAgent> agent;
  if (synth) agent.emplace(load_policy(options.data_dir));
  const Reference ref = read_reference(options.reference_path);
  check_reference_matches(ref, slice);
  const auto limits = solve_limits(options.workload);
  const csat::rl::DqnAgent* policy = agent ? &*agent : nullptr;

  Outcome out;
  // One pass = every arm over the whole slice, untraced.
  std::vector<std::vector<Solved>> untraced;  // [arm][instance], last pass
  std::size_t on_time = 0;
  auto run_pass = [&] {
    untraced.assign(arms.size(), {});
    double total = 0.0;
    for (std::size_t a = 0; a < arms.size(); ++a) {
      const auto o = arm_options(arms[a], limits, policy);
      for (std::size_t i = 0; i < slice.size(); ++i) {
        Solved s = solve_untraced(slice[i], o);
        ++out.attempted;
        const std::string err = verify(slice[i], ref.entries[i], s);
        if (!err.empty()) out.fail(std::string(prefix(arms[a])) + " " + err);
        if (err.empty() && s.seconds <= kOnTimeLimitS) ++on_time;
        total += s.seconds;
        untraced[a].push_back(std::move(s));
      }
    }
    return total;
  };
  auto print_recipes = [&] {
    for (std::size_t a = 0; a < arms.size(); ++a)
      for (std::size_t i = 0; i < slice.size(); ++i)
        std::fprintf(stderr, "recipe %s %s %s %s %.3fs\n", prefix(arms[a]),
                     slice[i].name.c_str(),
                     status_name(untraced[a][i].status),
                     recipe_text(untraced[a][i].recipe).c_str(),
                     untraced[a][i].seconds);
  };

  if (!options.trace) {
    std::vector<double> pass_totals;
    Stopwatch elapsed;
    while (pass_totals.empty() || elapsed.seconds() < options.seconds) {
      pass_totals.push_back(run_pass());
      if (pass_totals.size() == 1) print_recipes();
      time_setup();
    }
    std::fprintf(stderr, "%zu passes\n", pass_totals.size());
    out.add("total_s", median(pass_totals));
    out.add("on_time_frac",
            static_cast<double>(on_time) / static_cast<double>(out.attempted));
    out.add("setup_s", median(setup_times));
    out.add("peak_rss_mb", peak_rss_mb());
    return out;
  }

  // Traced run: one untraced pass for reference, then the replica.
  const double untraced_total = run_pass();
  print_recipes();
  Tracer tracer;
  Counters c;
  double traced_total = 0.0;
  for (std::size_t a = 0; a < arms.size(); ++a) {
    const auto o = arm_options(arms[a], limits, policy);
    double arm_total = 0.0;
    for (std::size_t i = 0; i < slice.size(); ++i) {
      const std::uint64_t id = a * slice.size() + i;
      const Solved s = solve_traced(slice[i], arms[a], o, tracer, id, c);
      ++out.attempted;
      std::string err = verify(slice[i], ref.entries[i], s);
      if (err.empty() && !s.same_run(untraced[a][i]))
        err = slice[i].name + ": traced replica diverged from solve_instance";
      if (!err.empty()) out.fail(std::string(prefix(arms[a])) + " " + err);
      traced_total += s.seconds;
      arm_total += untraced[a][i].seconds;
    }
    c[std::string(prefix(arms[a])) + ".total_s"] = arm_total;
  }
  for (const auto& [name, self] : tracer.self_seconds())
    if (name.find(".instance") == std::string::npos)
      c[name + ".self_s"] += self;
  for (Arm arm : arms) {
    const std::string p = prefix(arm);
    const double solve_s = c[p + ".sat.solve.self_s"];
    c[p + ".sat.solve.props_per_s"] =
        solve_s > 0.0 ? c[p + ".sat.propagations"] / solve_s : 0.0;
    c.erase(p + ".sat.propagations");
  }
  c["trace.overhead_s"] = traced_total - untraced_total;
  const std::string trace_path = options.work_dir + "/trace_" +
                                 to_string(options.workload) + "_" +
                                 std::to_string(options.seed) + ".json";
  if (!tracer.write_json(trace_path))
    throw std::runtime_error("cannot write " + trace_path);
  for (const auto& [name, value] : c) out.add(name, value);
  return out;
}

}  // namespace perfbench
