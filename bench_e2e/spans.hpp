// Spans recorded by the traced run at layer boundaries, kept in memory and
// written once at the end as Chrome trace-event JSON (chrome://tracing,
// ui.perfetto.dev). Each recording thread owns one lane, so recording takes
// no lock; a lane stops growing at its capacity and counts what it dropped.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"

namespace e2e {

struct Span {
  const char* name = "";  ///< static string
  std::uint64_t request = 0;  ///< shared by every span of one request
  std::int64_t parent = -1;   ///< index of the enclosing span in the lane
  double start_us = 0.0;      ///< since the trace origin
  double end_us = 0.0;
};

class SpanLane {
 public:
  SpanLane(std::string label, Clock::time_point origin, std::size_t capacity);

  /// Microseconds from the trace origin to `t`.
  double at_us(Clock::time_point t) const;
  /// Records a span and returns its index (or -1 once the lane is full).
  std::int64_t add(const char* name, std::uint64_t request, std::int64_t parent,
                   double start_us, double end_us);

  const std::string& label() const { return label_; }
  const std::vector<Span>& spans() const { return spans_; }
  std::uint64_t dropped() const { return dropped_; }

 private:
  std::string label_;
  Clock::time_point origin_;
  std::size_t capacity_;
  std::vector<Span> spans_;
  std::uint64_t dropped_ = 0;
};

/// Writes every lane as one thread of a Chrome trace. Returns false when the
/// file cannot be written.
bool write_chrome_trace(const std::string& path,
                        const std::vector<const SpanLane*>& lanes);

}  // namespace e2e
