#include "trace.h"

#include <fstream>

namespace perfbench {

double Tracer::now() const {
  return std::chrono::duration<double>(Clock::now() - origin_).count();
}

std::int64_t Tracer::begin(std::string name, std::int64_t parent,
                           std::uint64_t instance) {
  const double t = now();
  return record(std::move(name), parent, instance, t, t);
}

void Tracer::end(std::int64_t id) {
  spans_[static_cast<std::size_t>(id)].end = now();
}

std::int64_t Tracer::record(std::string name, std::int64_t parent,
                            std::uint64_t instance, double start, double end) {
  spans_.push_back({std::move(name), parent, instance, start, end});
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

std::map<std::string, double> Tracer::self_seconds() const {
  // Children of one span never overlap (each caller is single-threaded),
  // so the covered part is the sum of their durations.
  std::vector<double> child_time(spans_.size(), 0.0);
  for (const Span& s : spans_)
    if (s.parent != kNoParent)
      child_time[static_cast<std::size_t>(s.parent)] += s.end - s.start;
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    self[spans_[i].name] += spans_[i].end - spans_[i].start - child_time[i];
  return self;
}

bool Tracer::write_json(const std::string& path) const {
  std::ofstream out(path);
  out.precision(9);
  out << "[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\":" << i << ",\"name\":\"" << s.name
        << "\",\"parent\":" << s.parent << ",\"instance\":" << s.instance
        << ",\"start\":" << s.start << ",\"end\":" << s.end << "}"
        << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]\n";
  return static_cast<bool>(out.flush());
}

}  // namespace perfbench
