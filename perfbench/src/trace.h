#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

/// \file trace.h
/// In-memory span recorder for the traced benchmark runs. A span is one
/// call into a layer's public function, timed from the benchmark: name,
/// start, end, parent span and the instance (or request) it served. Spans
/// stay in memory until the run ends and are then written out as JSON.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline constexpr std::int64_t kNoParent = -1;

struct Span {
  std::string name;
  std::int64_t parent = kNoParent;
  std::uint64_t instance = 0;
  double start = 0.0;  ///< seconds since the tracer was created
  double end = 0.0;
};

class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}

  /// Opens a span and returns its id.
  std::int64_t begin(std::string name, std::int64_t parent,
                     std::uint64_t instance);
  void end(std::int64_t id);
  /// Records an already-measured interval (times relative to the origin).
  std::int64_t record(std::string name, std::int64_t parent,
                      std::uint64_t instance, double start, double end);
  [[nodiscard]] double now() const;

  /// Span duration minus the part of it covered by its children, summed by
  /// span name.
  [[nodiscard]] std::map<std::string, double> self_seconds() const;

  /// Writes every span as one JSON array; returns false on an I/O error.
  bool write_json(const std::string& path) const;

  /// RAII span: opens on construction, closes on destruction.
  class Scope {
   public:
    Scope(Tracer& tracer, std::string name, std::int64_t parent,
          std::uint64_t instance)
        : tracer_(tracer),
          id_(tracer.begin(std::move(name), parent, instance)) {}
    ~Scope() { tracer_.end(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    [[nodiscard]] std::int64_t id() const { return id_; }

   private:
    Tracer& tracer_;
    std::int64_t id_;
  };

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H
