#include <algorithm>
#include <cmath>
#include <fstream>
#include <set>
#include <stdexcept>
#include <sys/resource.h>

#include "aig/structural_hash.h"
#include "bench.h"
#include "gen/suite.h"
#include "rl/embedding.h"
#include "rl/features.h"
#include "rl/trainer.h"

namespace perfbench {

namespace {

enum class Kind { kEq, kBug, kAtpg };

/// One slot of the Fig. 4 slice. Widths sit inside make_test_suite's
/// family ranges and are pinned, so a slot costs the same under every seed:
/// the equivalence miters do not depend on the seed at all, and the seed
/// only moves the bug site, the fault site or the random circuit of the
/// others. Without pinning, a seed that draws a 352-bit adder instead of a
/// 224-bit one would double the resub time and swamp any real change.
struct Slot {
  const char* family;
  int width;
  Kind kind;
};

// The 224-bit adder miter is preprocess-bound (resub on its carry chain
// dominates Comp. and Ours); the commuted multipliers are solve-bound; the
// ALU fault and the random-circuit bug are the quick SAT cases of the test
// suite. The seeded instances are much cheaper than the median one, so the
// median instance is the same equivalence miter under every seed.
constexpr Slot kFig4Slots[] = {
    {"add", 224, Kind::kEq},  {"mul", 7, Kind::kEq},
    {"mul", 6, Kind::kEq},    {"alu", 48, Kind::kAtpg},
    {"par", 96, Kind::kEq},   {"rnd", 12, Kind::kBug},
};

std::uint64_t mix(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + salt;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Item make_slot(const Slot& slot, std::uint64_t seed, std::size_t index,
               const char* prefix) {
  csat::gen::SuiteParams p;
  p.count = 1;
  p.seed = mix(seed, index);
  p.atpg_fraction = slot.kind == Kind::kAtpg ? 1.0 : 0.0;
  p.bug_fraction = slot.kind == Kind::kBug ? 1.0 : 0.0;
  const csat::gen::FamilyRange off{slot.width, slot.width, 0.0};
  const csat::gen::FamilyRange on{slot.width, slot.width, 1.0};
  const std::string family = slot.family;
  p.multiplier = family == "mul" ? on : off;
  p.adder = family == "add" ? on : off;
  p.alu = family == "alu" ? on : off;
  p.parity = family == "par" ? on : off;
  p.random_xor = family == "rnd" ? on : off;
  csat::gen::Instance inst = std::move(csat::gen::make_suite(p).front());
  std::string name = prefix;
  name += std::to_string(index) + "_" + inst.name;
  return {std::move(name), std::move(inst.circuit)};
}

}  // namespace

bool parse_workload(const std::string& name, Workload& out) {
  for (Workload w : {Workload::kFig4Synth, Workload::kFig4Baseline,
                     Workload::kServeMixed}) {
    if (name == to_string(w)) {
      out = w;
      return true;
    }
  }
  return false;
}

const char* to_string(Workload workload) {
  switch (workload) {
    case Workload::kFig4Synth:
      return "fig4_synth";
    case Workload::kFig4Baseline:
      return "fig4_baseline";
    case Workload::kServeMixed:
      return "serve_mixed";
  }
  return "?";
}

std::vector<Item> make_fig4_slice(std::uint64_t seed) {
  std::vector<Item> slice;
  for (std::size_t i = 0; i < std::size(kFig4Slots); ++i)
    slice.push_back(make_slot(kFig4Slots[i], seed, i, "s"));
  return slice;
}

std::vector<Item> make_serve_pool(std::uint64_t seed) {
  // Easy-regime families and widths (as in gen::make_training_suite), where
  // a solve takes about 1-3 ms, in a fixed round-robin composition so every
  // seed's pool costs about the same to serve; the seed draws the bug and
  // fault sites. Every instance is structurally distinct (a slot whose draw
  // repeats an earlier one is drawn again), so a request hits the cache only
  // when it repeats a hot-set instance on purpose. Equivalence miters do not
  // depend on the seed and appear only in the hot set. The random-XOR
  // family is left out because its bug injection aborts on circuits that
  // strash to no gates.
  constexpr const char* kFamilies[] = {"add", "mul", "alu", "par"};
  constexpr Kind kHotKinds[] = {Kind::kEq, Kind::kBug, Kind::kAtpg};
  constexpr Kind kCycleKinds[] = {Kind::kBug, Kind::kAtpg, Kind::kBug};
  constexpr std::uint64_t kMaxDraws = 64;
  std::vector<Item> pool;
  pool.reserve(kServeHot + kServeCycle);
  std::set<std::uint64_t> seen;
  for (std::size_t i = 0; i < kServeHot + kServeCycle; ++i) {
    const std::string family = kFamilies[i % std::size(kFamilies)];
    const std::size_t round = i / std::size(kFamilies);
    const int width = family == "add"   ? 12 + static_cast<int>(round % 9)
                      : family == "mul" ? 4 + static_cast<int>(round % 2)
                      : family == "alu" ? 8 + static_cast<int>(round % 5)
                                        : 12 + static_cast<int>(round % 9);
    const Kind kind = i < kServeHot ? kHotKinds[round % std::size(kHotKinds)]
                                    : kCycleKinds[round % std::size(kCycleKinds)];
    const Slot slot{kFamilies[i % std::size(kFamilies)], width, kind};
    for (std::uint64_t draw = 0;; ++draw) {
      if (draw == kMaxDraws)
        throw std::runtime_error("serve pool: no distinct instance for slot " +
                                 std::to_string(i));
      Item item = make_slot(slot, mix(seed, 0x5e7e + draw), i, "p");
      if (seen.insert(csat::aig::structural_hash(item.circuit)).second) {
        pool.push_back(std::move(item));
        break;
      }
    }
  }
  return pool;
}

std::vector<Item> make_items(Workload workload, std::uint64_t seed) {
  return workload == Workload::kServeMixed ? make_serve_pool(seed)
                                           : make_fig4_slice(seed);
}

csat::sat::Limits solve_limits(Workload workload) {
  csat::sat::Limits limits;
  if (workload == Workload::kServeMixed) {
    limits.max_conflicts = 1'000'000;
    limits.max_seconds = 10.0;
  } else {
    limits.max_conflicts = 5'000'000;
    limits.max_seconds = 60.0;
  }
  return limits;
}

namespace {

csat::rl::DqnConfig policy_config() {
  csat::rl::DqnConfig cfg;
  cfg.state_size = csat::rl::kNumStateFeatures + csat::rl::kEmbeddingDim;
  return cfg;
}

}  // namespace

csat::rl::DqnAgent load_policy(const std::string& data_dir) {
  const std::string path = data_dir + "/policy.mlp";
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open the frozen policy " + path);
  csat::rl::DqnAgent agent(policy_config());
  agent.load(in);
  return agent;
}

csat::rl::DqnAgent train_policy() {
  csat::rl::DqnAgent agent(policy_config());
  const auto train_set = csat::gen::make_training_suite(24, 7);
  csat::rl::TrainConfig tcfg;
  tcfg.episodes = 20;
  tcfg.env.max_steps = 6;
  tcfg.env.solve_limits.max_conflicts = 30000;
  csat::rl::train_agent(agent, train_set, tcfg);
  return agent;
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

const char* status_name(csat::sat::Status status) {
  switch (status) {
    case csat::sat::Status::kSat:
      return "SAT";
    case csat::sat::Status::kUnsat:
      return "UNSAT";
    case csat::sat::Status::kUnknown:
      return "UNKNOWN";
  }
  return "?";
}

}  // namespace perfbench
