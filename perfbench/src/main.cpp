// perfbench: the repository benchmark program.
//
//   perfbench run --workload W --seed N --seconds S --trace 0|1
//                 --reference FILE --data DIR --work DIR
//       Runs workload W on the inputs of seed N, checks every verdict
//       against the reference and prints the result, with the metrics it
//       measured by name, as one JSON line; run.py orders and completes the
//       metrics from BENCHMARK.json, which alone lists them with units.
//       Exit 0 when every verdict is correct, 1 when one is not.
//   perfbench oracle --workload W --seed N --out FILE
//       Computes and certifies the verdict reference of seed N.
//   perfbench train-policy --out FILE
//       Trains the frozen Ours policy (data/policy.mlp).
//   perfbench calibrate --seed N --work DIR
//       Measures serve_mixed's capacity in requests per second.
//
// perfbench/run.py builds this program and calls it; see perfbench/README.md.

#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <map>
#include <string>
#include <thread>

#include "bench.h"

namespace perfbench {

namespace {

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

struct Args {
  std::map<std::string, std::string> flags;
  [[nodiscard]] std::string get(const std::string& key) const {
    const auto it = flags.find(key);
    if (it == flags.end())
      throw std::invalid_argument("missing --" + key);
    return it->second;
  }
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 2; i < argc; ++i) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc)
      throw std::invalid_argument("bad argument " + key);
    a.flags[key.substr(2)] = argv[++i];
  }
  return a;
}

Workload workload_arg(const Args& a) {
  Workload w;
  if (!parse_workload(a.get("workload"), w))
    throw std::invalid_argument("unknown workload " + a.get("workload"));
  return w;
}

std::uint64_t seed_arg(const Args& a) {
  return std::stoull(a.get("seed"));
}

int cmd_run(const Args& a) {
  RunOptions o;
  o.workload = workload_arg(a);
  o.seed = seed_arg(a);
  o.seconds = std::stod(a.get("seconds"));
  o.trace = a.get("trace") == "1";
  o.reference_path = a.get("reference");
  o.data_dir = a.get("data");
  o.work_dir = a.get("work");
  Outcome out = o.workload == Workload::kServeMixed ? run_serve(o) : run_fig4(o);
  if (!o.trace)
    out.add("ok_frac", 1.0 - static_cast<double>(out.failed) /
                                 static_cast<double>(out.attempted));
  if (!out.first_error.empty())
    std::fprintf(stderr, "FAILED (%llu of %llu): %s\n",
                 static_cast<unsigned long long>(out.failed),
                 static_cast<unsigned long long>(out.attempted),
                 out.first_error.c_str());
  std::printf("%s\n", to_json(out).c_str());
  return out.failed == 0 ? 0 : 1;
}

int cmd_oracle(const Args& a) {
  const Workload w = workload_arg(a);
  const auto items = make_items(w, seed_arg(a));
  const std::size_t threads =
      std::max(1U, std::thread::hardware_concurrency() - 1);
  write_reference(compute_reference(items, solve_limits(w), threads),
                  a.get("out"));
  return 0;
}

int cmd_train(const Args& a) {
  std::ofstream out(a.get("out"));
  train_policy().save(out);
  return out.flush() ? 0 : 1;
}

int cmd_calibrate(const Args& a) {
  RunOptions o;
  o.seed = seed_arg(a);
  o.work_dir = a.get("work");
  std::printf("capacity %.1f requests/s\n", calibrate_serve(o));
  return 0;
}

}  // namespace

std::string to_json(const Outcome& outcome) {
  std::string s = "{\"correct\": ";
  s += outcome.failed == 0 ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(outcome.attempted);
  s += ", \"failed\": " + std::to_string(outcome.failed);
  s += ", \"metrics\": {";
  for (std::size_t i = 0; i < outcome.metrics.size(); ++i) {
    const Metric& m = outcome.metrics[i];
    s += (i ? ", \"" : "\"") + m.name + "\": " + json_number(m.value);
  }
  return s + "}}";
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const std::string cmd = argc > 1 ? argv[1] : "";
  try {
    const Args args = parse_args(argc, argv);
    if (cmd == "run") return cmd_run(args);
    if (cmd == "oracle") return cmd_oracle(args);
    if (cmd == "train-policy") return cmd_train(args);
    if (cmd == "calibrate") return cmd_calibrate(args);
    std::fprintf(stderr, "usage: perfbench run|oracle|train-policy|calibrate ...\n");
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench %s: %s\n", cmd.c_str(), e.what());
    return 3;
  }
}
