#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "aig/simulate.h"
#include "aig/structural_hash.h"
#include "bench.h"
#include "cnf/tseitin.h"
#include "core/pipeline.h"
#include "sat/drat_check.h"
#include "sat/proof.h"

namespace perfbench {

bool witness_satisfies(const csat::aig::Aig& g,
                       const std::vector<bool>& witness) {
  if (witness.size() != g.num_pis()) return false;
  for (bool po : csat::aig::evaluate(g, witness))
    if (po) return true;
  return false;
}

namespace {

/// One oracle verdict, certified independently of the solver: a SAT
/// witness is simulated on the instance, an UNSAT proof is replayed against
/// the Tseitin CNF of the instance.
Reference::Entry certify(const Item& item, const csat::sat::Limits& limits) {
  csat::sat::ProofLog log;
  csat::core::PipelineOptions opt;
  opt.mode = csat::core::PipelineMode::kBaseline;
  opt.limits = limits;
  opt.proof = &log;
  const auto r = csat::core::solve_instance(item.circuit, opt);
  Reference::Entry e{item.name, csat::aig::structural_hash(item.circuit),
                     r.status};
  if (r.status == csat::sat::Status::kSat) {
    if (!witness_satisfies(item.circuit, r.witness))
      throw std::runtime_error(item.name + ": SAT witness does not simulate");
  } else if (r.status == csat::sat::Status::kUnsat) {
    const auto enc = csat::cnf::tseitin_encode(item.circuit);
    const auto check = csat::sat::check_drat(enc.cnf, log);
    if (!check.valid || !check.proved_unsat)
      throw std::runtime_error(item.name + ": DRAT check failed: " +
                               check.error);
  } else {
    throw std::runtime_error(item.name + ": undecided within the budget");
  }
  return e;
}

csat::sat::Status parse_status(const std::string& s) {
  if (s == "SAT") return csat::sat::Status::kSat;
  if (s == "UNSAT") return csat::sat::Status::kUnsat;
  throw std::runtime_error("reference: bad verdict '" + s + "'");
}

}  // namespace

Reference compute_reference(const std::vector<Item>& items,
                            const csat::sat::Limits& limits,
                            std::size_t threads) {
  Reference ref;
  ref.entries.resize(items.size());
  std::atomic<std::size_t> next{0};
  std::mutex error_mutex;
  std::string error;
  auto work = [&] {
    for (std::size_t i = next++; i < items.size(); i = next++) {
      try {
        ref.entries[i] = certify(items[i], limits);
      } catch (const std::exception& e) {
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (error.empty()) error = e.what();
      }
    }
  };
  std::vector<std::thread> pool;
  for (std::size_t t = 1; t < threads; ++t) pool.emplace_back(work);
  work();
  for (auto& t : pool) t.join();
  if (!error.empty()) throw std::runtime_error("oracle: " + error);
  return ref;
}

void write_reference(const Reference& ref, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write reference " + path);
  for (std::size_t i = 0; i < ref.entries.size(); ++i) {
    const auto& e = ref.entries[i];
    char hash[32];
    std::snprintf(hash, sizeof hash, "%016" PRIx64, e.hash);
    out << i << ' ' << hash << ' ' << status_name(e.status) << ' ' << e.name
        << '\n';
  }
  if (!out.flush()) throw std::runtime_error("cannot write reference " + path);
}

Reference read_reference(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read reference " + path);
  Reference ref;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::size_t index = 0;
    std::string hash, status;
    Reference::Entry e;
    if (!(fields >> index >> hash >> status >> e.name) ||
        index != ref.entries.size())
      throw std::runtime_error("reference " + path + ": malformed line '" +
                               line + "'");
    e.hash = std::stoull(hash, nullptr, 16);
    e.status = parse_status(status);
    ref.entries.push_back(std::move(e));
  }
  return ref;
}

void check_reference_matches(const Reference& ref,
                             const std::vector<Item>& items) {
  if (ref.entries.size() != items.size())
    throw std::runtime_error("reference covers " +
                             std::to_string(ref.entries.size()) +
                             " instances, the workload has " +
                             std::to_string(items.size()));
  for (std::size_t i = 0; i < items.size(); ++i) {
    const auto& e = ref.entries[i];
    if (e.name != items[i].name ||
        e.hash != csat::aig::structural_hash(items[i].circuit))
      throw std::runtime_error("reference entry " + std::to_string(i) + " (" +
                               e.name + ") does not describe instance " +
                               items[i].name + "; regenerate the reference");
  }
}

}  // namespace perfbench
