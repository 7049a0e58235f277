#include "ladder.hpp"

#include <algorithm>
#include <cstring>
#include <limits>

#include "codes/gf256.hpp"
#include "core/array.hpp"
#include "core/striped_lock.hpp"
#include "layout/concurrency_map.hpp"
#include "layout/stripe_map.hpp"
#include "util/stats.hpp"

namespace e2e {

namespace {

/// Steps per rebuild call, matching the server's default rebuild batch (and
/// so its checkpoint cadence).
constexpr std::size_t kRebuildBatch = 8;
/// Disks the ladder fails and rebuilds, one at a time.
constexpr std::size_t kLadderRebuilds = 3;
/// Ladder spans kept (about five per replayed 4 KiB request).
constexpr std::size_t kLadderSpans = 1u << 15;

/// Keeps the bulk-timed layout lookups observable.
volatile std::size_t g_sink = 0;

std::uint64_t nanos(Clock::duration d) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(d).count());
}

double micros(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

}  // namespace

// ------------------------------------------------------------ TimedStore ----

TimedStore::TimedStore(std::unique_ptr<core::BlockStore> inner)
    : inner_(std::move(inner)) {
  reset_counts();
}

void TimedStore::read(std::size_t disk, std::size_t offset,
                      std::span<std::uint8_t> out) const {
  const auto start = Clock::now();
  inner_->read(disk, offset, out);
  const auto end = Clock::now();
  ++counts_.reads[disk];
  counts_.read_ns += nanos(end - start);
  calls_.push_back({false, start, end});
}

void TimedStore::write(std::size_t disk, std::size_t offset,
                       std::span<const std::uint8_t> data) {
  const auto start = Clock::now();
  inner_->write(disk, offset, data);
  const auto end = Clock::now();
  ++counts_.writes[disk];
  counts_.write_ns += nanos(end - start);
  calls_.push_back({true, start, end});
}

void TimedStore::trim_disk(std::size_t disk, std::uint8_t fill) {
  inner_->trim_disk(disk, fill);
}

void TimedStore::flush() {
  const auto start = Clock::now();
  inner_->flush();
  ++counts_.flushes;
  counts_.flush_ns += nanos(Clock::now() - start);
}

void TimedStore::reset_counts() {
  counts_ = Counts{};
  counts_.reads.assign(inner_->disks(), 0);
  counts_.writes.assign(inner_->disks(), 0);
  calls_.clear();
}

std::uint64_t TimedStore::total_reads() const {
  std::uint64_t total = 0;
  for (std::uint64_t n : counts_.reads) total += n;
  return total;
}

std::uint64_t TimedStore::total_writes() const {
  std::uint64_t total = 0;
  for (std::uint64_t n : counts_.writes) total += n;
  return total;
}

std::vector<TimedStore::Call> TimedStore::take_calls() {
  std::vector<Call> out;
  out.swap(calls_);
  return out;
}

// ----------------------------------------------------------- persistence ----

double persist_rebuild_step_us(server::PersistentArray& array, std::size_t disk,
                               Tally& tally) {
  ++tally.attempted;
  std::vector<double> steps_us;
  try {
    array.fail_disk(disk);
    while (array.array().any_failed()) {
      const auto start = Clock::now();
      array.rebuild_step(kRebuildBatch);
      steps_us.push_back(micros(Clock::now() - start));
    }
  } catch (const std::exception& error) {
    tally.fail(std::string("persist rebuild: ") + error.what());
  }
  return mean_of(steps_us);
}

// ---------------------------------------------------------------- ladder ----

LadderResult run_ladder(const LadderInput& in, Tally& tally) {
  const WorkloadSpec& spec = *in.spec;
  LadderResult result;
  result.lane = std::make_unique<SpanLane>(spec.name + " ladder", in.trace_origin,
                                           kLadderSpans);
  SpanLane& lane = *result.lane;
  Metrics& m = result.metrics;

  auto layout = std::make_shared<const layout::OiRaidLayout>(bench_layout());
  const layout::StripeMap& map = layout->stripe_map();
  const layout::ConcurrencyMap& domains_map = layout->concurrency_map();
  auto timed = std::make_unique<TimedStore>(std::make_unique<core::FileBlockStore>(
      in.dir, layout->disks(), layout->strips_per_disk(), kStripBytes));
  TimedStore& store = *timed;
  core::Array array(layout, std::move(timed));
  core::DomainLockTable locks(domains_map);
  if (spec.degraded) array.fail_disk(in.degraded_disk);
  store.reset_counts();

  // Stream 0, round-robin over its connections: the requests the first
  // socket window sent, in the order a single thread can replay them.
  std::vector<OpStream> streams;
  for (std::size_t c = 0; c < spec.connections; ++c) {
    streams.emplace_back(spec, mix(in.seed, 0), c, in.versions->size());
  }
  std::vector<std::uint32_t>& versions = *in.versions;
  std::vector<std::uint8_t> payload(spec.request_bytes);
  std::vector<std::uint8_t> expect(kStripBytes);
  std::vector<double> read_us, write_us, read_self_us, write_self_us;
  std::vector<std::size_t> read_logicals, write_logicals;
  std::uint64_t domains_total = 0;
  std::uint64_t user_bytes_written = 0;
  const core::IoCounters before = array.counters();

  for (std::size_t i = 0; i < in.max_ops; ++i) {
    const Op op = streams[i % streams.size()].next();
    const std::uint64_t offset = op.block * kStripBytes;
    const std::size_t bytes = op.blocks * kStripBytes;
    if (op.write) {
      for (std::uint32_t b = 0; b < op.blocks; ++b) {
        fill_block(in.seed, op.block + b, ++versions[op.block + b],
                   std::span(payload).subspan(b * kStripBytes, kStripBytes));
      }
      user_bytes_written += bytes;
    }
    for (std::uint32_t b = 0; b < op.blocks; ++b) {
      (op.write ? write_logicals : read_logicals).push_back(op.block + b);
    }
    try {
      const auto t0 = Clock::now();
      const auto domains =
          core::domains_of_range(map, domains_map, offset, bytes, kStripBytes);
      auto guard = op.write ? locks.lock_exclusive(domains) : locks.lock_shared(domains);
      const auto t1 = Clock::now();
      std::vector<std::uint8_t> data;
      if (op.write) {
        array.write_bytes(offset, std::span(payload).first(bytes));
      } else {
        data = array.read_bytes(offset, bytes);
      }
      const auto t2 = Clock::now();
      guard.release();
      const auto t3 = Clock::now();
      domains_total += domains.size();

      const auto calls = store.take_calls();
      Clock::duration child{};
      for (const auto& call : calls) child += call.end - call.start;
      (op.write ? write_us : read_us).push_back(micros(t2 - t1));
      (op.write ? write_self_us : read_self_us).push_back(micros(t2 - t1 - child));

      const std::int64_t root = lane.add("ladder.op", i, -1, lane.at_us(t0), lane.at_us(t3));
      lane.add("lock", i, root, lane.at_us(t0), lane.at_us(t1));
      const std::int64_t parent = lane.add(op.write ? "array.write" : "array.read", i,
                                           root, lane.at_us(t1), lane.at_us(t2));
      for (const auto& call : calls) {
        lane.add(call.write ? "store.write" : "store.read", i, parent,
                 lane.at_us(call.start), lane.at_us(call.end));
      }
      if (!op.write) {
        for (std::uint32_t b = 0; b < op.blocks; ++b) {
          fill_block(in.seed, op.block + b, versions[op.block + b], expect);
          if (std::memcmp(data.data() + b * kStripBytes, expect.data(), kStripBytes) != 0) {
            tally.fail("ladder read mismatch at block " + std::to_string(op.block + b));
            break;
          }
        }
      }
    } catch (const std::exception& error) {
      tally.fail(std::string("ladder op: ") + error.what());
    }
    ++tally.attempted;
  }

  const double ops = static_cast<double>(std::max<std::size_t>(in.max_ops, 1));
  const core::IoCounters delta = array.counters() - before;
  const TimedStore::Counts& c = store.counts();
  const std::uint64_t store_reads = store.total_reads();
  const std::uint64_t store_writes = store.total_writes();
  m["lock.domains_per_op"] = {static_cast<double>(domains_total) / ops, "count"};
  m["array.read.p50_us"] = {read_us.empty() ? 0.0 : oi::percentile(read_us, 0.5), "us"};
  m["array.write.p50_us"] = {write_us.empty() ? 0.0 : oi::percentile(write_us, 0.5), "us"};
  m["array.read.self_us"] = {mean_of(read_self_us), "us"};
  m["array.write.self_us"] = {mean_of(write_self_us), "us"};
  m["store.read.mean_ns"] = {
      store_reads ? static_cast<double>(c.read_ns) / static_cast<double>(store_reads) : 0.0,
      "ns"};
  m["store.write.mean_ns"] = {
      store_writes ? static_cast<double>(c.write_ns) / static_cast<double>(store_writes)
                   : 0.0,
      "ns"};
  m["store.reads_per_op"] = {static_cast<double>(store_reads) / ops, "count"};
  m["store.writes_per_op"] = {static_cast<double>(store_writes) / ops, "count"};
  m["store.bytes_written_per_user_byte"] = {
      user_bytes_written ? static_cast<double>(store_writes * kStripBytes) /
                               static_cast<double>(user_bytes_written)
                         : 0.0,
      "ratio"};
  // Cross-check: the array's own counters against what reached the store.
  if (delta.strip_writes != store_writes) {
    tally.fail("array counted " + std::to_string(delta.strip_writes) +
               " strip writes but the store saw " + std::to_string(store_writes));
  }

  // Layout lookups over the replayed strips, timed in bulk (a clock read
  // per call would cost as much as the call).
  std::size_t sink = 0;
  const auto l0 = Clock::now();
  for (std::size_t logical : read_logicals) sink += layout->locate(logical).offset;
  for (std::size_t logical : write_logicals) sink += layout->locate(logical).offset;
  const auto l1 = Clock::now();
  for (std::size_t logical : write_logicals) {
    sink += layout->small_write_plan(logical).writes.size();
  }
  const auto l2 = Clock::now();
  const double lookups = static_cast<double>(read_logicals.size() + write_logicals.size());
  m["layout.locate.mean_ns"] = {
      lookups > 0 ? static_cast<double>(nanos(l1 - l0)) / lookups : 0.0, "ns"};
  m["layout.small_write_plan.mean_ns"] = {
      write_logicals.empty()
          ? 0.0
          : static_cast<double>(nanos(l2 - l1)) / static_cast<double>(write_logicals.size()),
      "ns"};
  g_sink = sink;

  // Rebuild ladder: plan (under what would be the all-domain barrier), then
  // 8-step batches each followed by a store flush, as the server does.
  std::vector<double> plan_ms, step_us, reads_per_strip;
  double imbalance = 0.0;
  const std::size_t disks = layout->disks();
  for (std::size_t k = 0; k < kLadderRebuilds; ++k) {
    const std::size_t disk = spec.degraded && k == 0
                                 ? in.degraded_disk
                                 : (in.seed + k * kDisksPerGroup) % disks;
    ++tally.attempted;
    try {
      if (!array.is_failed(disk)) array.fail_disk(disk);
      const auto failed = array.failed_disks();
      store.reset_counts();
      const auto p0 = Clock::now();
      array.rebuild_begin();
      plan_ms.push_back(std::chrono::duration<double, std::milli>(Clock::now() - p0).count());
      const auto plan = array.peek_rebuild_steps(std::numeric_limits<std::size_t>::max());
      std::uint64_t rebuilt = 0;
      while (array.rebuild_active()) {
        const auto s0 = Clock::now();
        rebuilt += array.rebuild_step(kRebuildBatch).strips_rebuilt;
        step_us.push_back(micros(Clock::now() - s0));
        store.take_calls();
        store.flush();
      }
      const auto predicted = layout::per_disk_read_load(*layout, failed, plan);
      std::vector<double> measured_survivors, predicted_survivors;
      for (std::size_t d = 0; d < disks; ++d) {
        if (std::find(failed.begin(), failed.end(), d) != failed.end()) continue;
        measured_survivors.push_back(static_cast<double>(store.counts().reads[d]));
        predicted_survivors.push_back(predicted[d]);
      }
      const double measured_ratio = oi::max_over_mean(measured_survivors);
      const double predicted_ratio = oi::max_over_mean(predicted_survivors);
      if (measured_survivors != predicted_survivors || measured_ratio != predicted_ratio) {
        tally.fail("rebuild of disk " + std::to_string(disk) + ": measured read imbalance " +
                   std::to_string(measured_ratio) + " != planned " +
                   std::to_string(predicted_ratio));
      }
      imbalance = std::max(imbalance, measured_ratio);
      reads_per_strip.push_back(rebuilt ? static_cast<double>(store.total_reads()) /
                                              static_cast<double>(rebuilt)
                                        : 0.0);
    } catch (const std::exception& error) {
      tally.fail(std::string("ladder rebuild: ") + error.what());
    }
  }
  m["layout.rebuild_plan.mean_ms"] = {mean_of(plan_ms), "ms"};
  m["array.rebuild_step.mean_us"] = {mean_of(step_us), "us"};
  m["store.flush.mean_us"] = {
      c.flushes ? static_cast<double>(c.flush_ns) / 1e3 / static_cast<double>(c.flushes)
                : 0.0,
      "us"};
  m["store.rebuild.read_imbalance"] = {imbalance, "ratio"};
  m["layout.rebuild.reads_per_strip"] = {mean_of(reads_per_strip), "count"};
  return result;
}

// ---------------------------------------------------------------- kernels ----

Metrics codec_kernels() {
  // Sources cycle through 16 MiB, so each call streams its input from
  // memory rather than L1 -- as parity updates and rebuild reads do.
  constexpr std::size_t kPool = 16 * kMiB;
  constexpr std::size_t kStrips = kPool / kStripBytes;
  constexpr double kMinSeconds = 0.2;
  std::vector<std::uint8_t> pool(kPool);
  fill_block(1, 0, 0, pool);
  std::vector<std::uint8_t> dst(kStripBytes, 0);
  const auto strip = [&](std::size_t i) {
    return std::span<const std::uint8_t>(pool).subspan((i % kStrips) * kStripBytes,
                                                       kStripBytes);
  };
  const auto rate = [&](auto&& kernel) {
    std::size_t calls = 0;
    const auto start = Clock::now();
    double elapsed = 0.0;
    while (elapsed < kMinSeconds) {
      for (std::size_t i = 0; i < kStrips; ++i) kernel(calls + i);
      calls += kStrips;
      elapsed = seconds_since(start);
    }
    return static_cast<double>(calls * kStripBytes) / elapsed / 1e9;
  };
  Metrics m;
  m["codes.xor_acc.GBps"] = {rate([&](std::size_t i) { oi::gf::xor_acc(dst, strip(i)); }),
                             "GB/s"};
  m["codes.xor_delta.GBps"] = {
      rate([&](std::size_t i) { oi::gf::xor_delta(dst, strip(i), strip(i + 1)); }), "GB/s"};
  return m;
}

}  // namespace e2e
