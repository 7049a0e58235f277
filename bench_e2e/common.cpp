#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "bibd/constructions.hpp"

namespace e2e {

layout::OiRaidLayout bench_layout() {
  return layout::OiRaidLayout({oi::bibd::fano(), kDisksPerGroup, kRegionHeight});
}

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

namespace {

/// FNV-1a: a workload name's stream salt, identical on every platform.
std::uint64_t name_hash(const std::string& name) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : name) {
    h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  }
  return h;
}

}  // namespace

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  Rng rng(a * 0x2545f4914f6cdd1dULL ^ b);
  return rng.next();
}

void fill_block(std::uint64_t seed, std::uint64_t block, std::uint32_t version,
                std::span<std::uint8_t> out) {
  Rng rng(mix(mix(seed, block), version));
  for (std::size_t i = 0; i < out.size(); i += 8) {
    const std::uint64_t word = rng.next();
    std::memcpy(out.data() + i, &word, std::min<std::size_t>(8, out.size() - i));
  }
}

WorkloadSpec workload_by_name(const std::string& name) {
  WorkloadSpec spec;
  spec.name = name;
  if (name == "oltp_4k") return spec;
  if (name == "stream_1m") {
    spec.request_bytes = kMiB;
    spec.read_fraction = 0.5;
    spec.connections = 1;
    spec.sequential = true;
    return spec;
  }
  if (name == "degraded_4k") {
    spec.degraded = true;
    return spec;
  }
  if (name == "rebuild_4k") {
    spec.connections = 2;
    spec.rebuilding = true;
    spec.rebuild_load_ops_per_s = 4000.0;
    return spec;
  }
  throw std::invalid_argument("unknown workload '" + name +
                              "' (oltp_4k, stream_1m, degraded_4k, rebuild_4k)");
}

OpStream::OpStream(const WorkloadSpec& spec, std::uint64_t seed,
                   std::size_t connection, std::uint64_t total_blocks,
                   double rate_ops_per_s)
    : spec_(spec),
      rng_(mix(mix(seed, name_hash(spec.name)), connection)),
      connection_(connection),
      total_blocks_(total_blocks),
      rate_ops_per_s_(rate_ops_per_s) {
  if (spec_.sequential) {
    const std::uint64_t per_request = spec_.request_bytes / kStripBytes;
    cursor_span_ = total_blocks_ / per_request;
    write_cursor_ = rng_.below(cursor_span_);
    read_cursor_ = (write_cursor_ + cursor_span_ / 2) % cursor_span_;
  }
}

Op OpStream::next() {
  Op op;
  op.write = rng_.uniform() >= spec_.read_fraction;
  if (spec_.sequential) {
    op.blocks = static_cast<std::uint32_t>(spec_.request_bytes / kStripBytes);
    std::uint64_t& cursor = op.write ? write_cursor_ : read_cursor_;
    op.block = cursor * op.blocks;
    cursor = (cursor + 1) % cursor_span_;
  } else {
    const std::uint64_t owned = total_blocks_ / spec_.connections;
    op.block = connection_ + spec_.connections * rng_.below(owned);
  }
  if (rate_ops_per_s_ > 0.0) {
    const double per_connection = rate_ops_per_s_ / static_cast<double>(spec_.connections);
    due_s_ += -std::log(1.0 - rng_.uniform()) / per_connection;
    op.due_s = due_s_;
  }
  return op;
}

void Tally::fail(const std::string& reason) {
  ++failed;
  if (errors.size() < 8) errors.push_back(reason);
}

void Tally::merge(const Tally& other) {
  attempted += other.attempted;
  failed += other.failed;
  for (const std::string& e : other.errors) {
    if (errors.size() < 8) errors.push_back(e);
  }
}

namespace {

constexpr double kBucketRatio = 1.01;
const double kLogRatio = std::log(kBucketRatio);
// 1 us .. 100 s.
const std::size_t kLatencyBuckets =
    static_cast<std::size_t>(std::ceil(std::log(1e8) / kLogRatio)) + 1;

}  // namespace

LatencyHistogram::LatencyHistogram() : buckets_(kLatencyBuckets, 0) {}

std::size_t LatencyHistogram::bucket_of(double us) {
  if (!(us > 1.0)) return 0;
  return std::min(kLatencyBuckets - 1,
                  static_cast<std::size_t>(std::log(us) / kLogRatio) + 1);
}

void LatencyHistogram::add(double us) {
  ++buckets_[bucket_of(us)];
  ++count_;
  sum_us_ += us;
}

void LatencyHistogram::merge(const LatencyHistogram& other) {
  for (std::size_t i = 0; i < buckets_.size(); ++i) buckets_[i] += other.buckets_[i];
  count_ += other.count_;
  sum_us_ += other.sum_us_;
}

double LatencyHistogram::quantile(double q) const {
  if (count_ == 0) return 0.0;
  const auto rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(count_))));
  std::uint64_t seen = 0;
  std::size_t i = 0;
  for (; i < buckets_.size(); ++i) {
    seen += buckets_[i];
    if (seen >= rank) break;
  }
  // Bucket i > 0 spans [r^(i-1), r^i) us; bucket 0 holds everything <= 1 us.
  return i == 0 ? 1.0 : std::exp((static_cast<double>(i) - 0.5) * kLogRatio);
}

std::uint64_t LatencyHistogram::count_above(double us) const {
  std::uint64_t above = 0;
  for (std::size_t i = bucket_of(us) + 1; i < buckets_.size(); ++i) above += buckets_[i];
  return above;
}

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double mean_of(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  double sum = 0.0;
  for (double x : samples) sum += x;
  return sum / static_cast<double>(samples.size());
}

double peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

}  // namespace e2e
