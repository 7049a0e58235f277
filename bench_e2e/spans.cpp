#include "spans.hpp"

#include <fstream>

namespace e2e {

SpanLane::SpanLane(std::string label, Clock::time_point origin, std::size_t capacity)
    : label_(std::move(label)), origin_(origin), capacity_(capacity) {
  spans_.reserve(capacity_);
}

double SpanLane::at_us(Clock::time_point t) const {
  return std::chrono::duration<double, std::micro>(t - origin_).count();
}

std::int64_t SpanLane::add(const char* name, std::uint64_t request,
                           std::int64_t parent, double start_us, double end_us) {
  if (spans_.size() >= capacity_) {
    ++dropped_;
    return -1;
  }
  spans_.push_back({name, request, parent, start_us, end_us});
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

bool write_chrome_trace(const std::string& path,
                        const std::vector<const SpanLane*>& lanes) {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"traceEvents\": [\n";
  bool first = true;
  for (std::size_t tid = 0; tid < lanes.size(); ++tid) {
    const SpanLane& lane = *lanes[tid];
    out << (first ? "" : ",\n") << "{\"ph\": \"M\", \"pid\": 1, \"tid\": " << tid
        << ", \"name\": \"thread_name\", \"args\": {\"name\": \"" << lane.label()
        << " (" << lane.dropped() << " spans dropped)\"}}";
    first = false;
    for (const Span& s : lane.spans()) {
      out << ",\n{\"ph\": \"X\", \"pid\": 1, \"tid\": " << tid << ", \"name\": \""
          << s.name << "\", \"ts\": " << s.start_us
          << ", \"dur\": " << (s.end_us - s.start_us) << ", \"args\": {\"req\": "
          << s.request << ", \"parent\": \""
          << (s.parent >= 0 ? lane.spans()[static_cast<std::size_t>(s.parent)].name
                            : "")
          << "\"}}";
    }
  }
  out << "\n], \"displayTimeUnit\": \"ms\"}\n";
  return static_cast<bool>(out);
}

}  // namespace e2e
