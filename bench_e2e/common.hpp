// Shared pieces of the end-to-end data-plane benchmark: the fixed array
// geometry, the workload definitions and their request generators, the
// deterministic payload function, and the metric record every phase fills.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "layout/oi_raid.hpp"

namespace oi::core {}
namespace oi::server {}

namespace e2e {

namespace core = oi::core;
namespace layout = oi::layout;
namespace server = oi::server;

using Clock = std::chrono::steady_clock;

// Fano BIBD, m = 3, H = 2400, 4 KiB strips: 21 disks x 7200 strips, 67,200
// data strips (275 MB user, 619 MB raw -- larger than the last-level cache).
// H is a multiple of m(m-1)^2 = 12, so rebuild reads are exactly uniform.
inline constexpr std::size_t kStripBytes = 4096;
inline constexpr std::size_t kDisksPerGroup = 3;
inline constexpr std::size_t kRegionHeight = 2400;
inline constexpr std::size_t kMiB = 1024 * 1024;

layout::OiRaidLayout bench_layout();

/// splitmix64: tiny, fast and bit-identical on every platform, so a seed
/// names the same request stream everywhere.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  std::uint64_t below(std::uint64_t n) { return next() % n; }

 private:
  std::uint64_t state_;
};

std::uint64_t mix(std::uint64_t a, std::uint64_t b);

/// The bytes of one 4 KiB block at one version: a pure function of
/// (seed, block, version), so any read can be checked without a shadow copy.
void fill_block(std::uint64_t seed, std::uint64_t block, std::uint32_t version,
                std::span<std::uint8_t> out);

// ------------------------------------------------------------ workloads ----

struct WorkloadSpec {
  std::string name;
  std::size_t request_bytes = kStripBytes;
  double read_fraction = 0.7;
  std::size_t connections = 4;
  /// Sequential 1 MiB requests on separate read and write cursors.
  bool sequential = false;
  /// One disk failed, rebuild held to a crawl for the whole window.
  bool degraded = false;
  /// One disk failed, rebuilt online at a pace that spans the whole window.
  /// rebuild_s is then timed under an open-loop load of this many 4 KiB
  /// requests per second (summed over the connections), so the offered load
  /// is the same whatever the server's speed.
  bool rebuilding = false;
  double rebuild_load_ops_per_s = 0.0;
};

/// The four workloads; throws std::invalid_argument on an unknown name.
WorkloadSpec workload_by_name(const std::string& name);

/// One generated request. Offsets are in 4 KiB blocks.
struct Op {
  bool write = false;
  std::uint64_t block = 0;
  std::uint32_t blocks = 1;
  /// Open loop only: seconds after the stream's start the request is due.
  double due_s = 0.0;
};

/// The request stream of one connection. Random workloads give connection c
/// the blocks b with b % connections == c -- uniform over the whole capacity,
/// but no two connections ever touch the same block, so each connection can
/// check every read against its own version map.
class OpStream {
 public:
  /// `rate_ops_per_s` > 0 makes the stream open loop: requests fall due on
  /// a Poisson schedule of that rate, summed over the connections.
  OpStream(const WorkloadSpec& spec, std::uint64_t seed, std::size_t connection,
           std::uint64_t total_blocks, double rate_ops_per_s = 0.0);
  Op next();

 private:
  const WorkloadSpec& spec_;
  Rng rng_;
  std::size_t connection_;
  std::uint64_t total_blocks_;
  std::uint64_t read_cursor_ = 0;   ///< sequential only, in requests
  std::uint64_t write_cursor_ = 0;  ///< sequential only, in requests
  std::uint64_t cursor_span_ = 0;   ///< sequential only, requests that fit
  double rate_ops_per_s_;
  double due_s_ = 0.0;
};

// -------------------------------------------------------------- metrics ----

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Named metrics of one run, printed in name order.
using Metrics = std::map<std::string, Metric>;

/// Outcome counters every phase adds to.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  ///< first few failure reasons

  void fail(const std::string& reason);
  void merge(const Tally& other);
};

/// Client latencies in log-spaced buckets 1% wide, from 1 us to 100 s:
/// memory stays fixed whatever the request rate, so the benchmark's own
/// bookkeeping does not move peak_rss_MB.
class LatencyHistogram {
 public:
  LatencyHistogram();
  void add(double us);
  void merge(const LatencyHistogram& other);
  std::uint64_t count() const { return count_; }
  double sum_us() const { return sum_us_; }
  /// Nearest-rank quantile, reported as its bucket's geometric midpoint.
  double quantile(double q) const;
  /// Samples in buckets wholly above the bucket holding `us`.
  std::uint64_t count_above(double us) const;

 private:
  static std::size_t bucket_of(double us);
  std::vector<std::uint32_t> buckets_;
  std::uint64_t count_ = 0;
  double sum_us_ = 0.0;
};

double seconds_since(Clock::time_point start);
double mean_of(const std::vector<double>& samples);
/// Peak resident set of this process in MB.
double peak_rss_mb();

}  // namespace e2e
