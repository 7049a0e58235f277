#include "socket_run.hpp"

#include <sys/prctl.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <thread>

#include "util/thread_pool.hpp"

namespace e2e {

namespace {

constexpr const char* kHost = "127.0.0.1";
constexpr int kClientTimeoutMs = 30000;
/// Threads that prefill and read back the array.
constexpr std::size_t kBulkThreads = 4;
/// Rebuild budget that holds the degraded array degraded: after the first
/// batch the server waits minutes for tokens, far past any window.
constexpr double kCrawlBytesPerSecond = 1024.0;
/// A rebuild slower than this is a failure, not a measurement.
constexpr double kRebuildDeadlineS = 60.0;
/// Slack after the window close within which every request due in the
/// window must have been sent for the open-loop generator to count as on
/// schedule. Each connection waits for its reply before it sends again, so
/// a slow spell of the server leaves a backlog; on the shared VM, spells of
/// 15-25 % steal left up to 10 of ~12,600 requests more than 0.1 s late.
constexpr double kScheduleSlackS = 1.0;
/// Spacing of the failures in the loaded rebuild pass: one disk per slot,
/// the next failing when its slot opens or its predecessor's rebuild ends.
constexpr double kRebuildSlotS = 0.15;
/// Extra seconds the paced rebuild of the rebuilding workload spans beyond
/// its warm-up and window, so it is still running when the window closes.
constexpr double kPaceMarginS = 3.0;
/// How long before a request is due the open-loop sender stops sleeping.
constexpr int kSpinUs = 100;
/// Client spans kept per connection; the rest are counted as dropped.
constexpr std::size_t kSpansPerLane = 1u << 14;

Clock::time_point after(Clock::time_point t, double seconds) {
  return t + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(seconds));
}

double micros(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

/// Sleeps until shortly before `due`, then spins: an open-loop request
/// timed from its due time must not also carry the sleeper's wake-up delay.
void wait_until(Clock::time_point due) {
  std::this_thread::sleep_until(due - std::chrono::microseconds(kSpinUs));
  while (Clock::now() < due) {
  }
}

struct CpuTimes {
  double steal = 0.0;  ///< time the hypervisor ran other guests
  double total = 0.0;
};

/// This machine's CPU time, summed over its CPUs, from /proc/stat.
CpuTimes read_cpu_times() {
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;  // the "cpu" line: user nice system idle iowait irq softirq steal
  CpuTimes t;
  double v = 0.0;
  for (int i = 0; i < 8 && in >> v; ++i) {
    t.total += v;
    if (i == 7) t.steal = v;
  }
  return t;
}

template <typename Fn>
void run_threads(std::size_t n, Fn fn) {
  std::vector<std::thread> threads;
  threads.reserve(n);
  for (std::size_t i = 0; i < n; ++i) threads.emplace_back(fn, i);
  for (auto& t : threads) t.join();
}

}  // namespace

void WindowResult::open(double window_s, bool scheduled) {
  seconds = window_s;
  open_loop = scheduled;
  const auto slices = static_cast<std::size_t>(std::max(1.0, std::round(window_s)));
  reads.assign(slices, LatencyHistogram());
  writes.assign(slices, LatencyHistogram());
}

void WindowResult::add(double due_s, double us, bool write) {
  const std::size_t slices = reads.size();
  const auto slice = static_cast<std::size_t>(
      static_cast<double>(slices) * std::max(0.0, due_s) / seconds);
  (write ? writes : reads)[std::min(slice, slices - 1)].add(us);
}

LatencyHistogram WindowResult::all(bool write) const {
  LatencyHistogram out;
  for (const LatencyHistogram& h : write ? writes : reads) out.merge(h);
  return out;
}

SocketBench::SocketBench(const WorkloadSpec& spec, std::uint64_t seed,
                         std::string dir, double run_s)
    : spec_(spec), seed_(seed), dir_(std::move(dir)), run_s_(run_s) {}

SocketBench::~SocketBench() { close(); }

std::size_t SocketBench::failed_disk() const {
  return static_cast<std::size_t>(mix(seed_, 0xdead) % array_->layout().disks());
}

void SocketBench::start_server(bool throttled) {
  server::BlockServerConfig config;
  // Notice a failed disk within a millisecond, so rebuild_s measures the
  // rebuild rather than the server's idle poll.
  config.rebuild_idle_ms = 1;
  if (throttled && spec_.degraded) {
    config.rebuild_bytes_per_second = kCrawlBytesPerSecond;
  }
  if (throttled && spec_.rebuilding) {
    // Pace the rebuild of the failed disk so it runs through the whole
    // window: the server charges each batch its strip reads and writes.
    const auto& layout = array_->layout();
    const auto plan = layout.recovery_plan({failed_disk()});
    double bytes = 0.0;
    for (const auto& step : *plan) {
      bytes += static_cast<double>((step.reads.size() + 1) * kStripBytes);
    }
    config.rebuild_bytes_per_second = bytes / (run_s_ + kPaceMarginS);
  }
  server_ = std::make_unique<server::BlockServer>(*array_, config);
}

void SocketBench::close() {
  server_.reset();
  array_.reset();
}

double SocketBench::setup(Tally& tally) {
  const auto start = Clock::now();
  array_ = std::make_unique<server::PersistentArray>(dir_, bench_layout(),
                                                     kStripBytes);
  versions_.assign(array_->array().capacity_strips(), 0);
  start_server(/*throttled=*/false);

  // Prefill: every block at version 0, in 1 MiB writes. The backing files
  // are sparse, and a read of a hole returns zero pages without touching
  // data, so an unfilled array would measure nothing.
  const std::uint64_t per_chunk = kMiB / kStripBytes;
  const std::uint64_t chunks = (total_blocks() + per_chunk - 1) / per_chunk;
  std::vector<Tally> tallies(kBulkThreads);
  run_threads(kBulkThreads, [&](std::size_t t) {
    std::vector<std::uint8_t> payload(kMiB);
    try {
      server::Client client(kHost, server_->port(), kClientTimeoutMs);
      for (std::uint64_t c = t; c < chunks; c += kBulkThreads) {
        const std::uint64_t first = c * per_chunk;
        const std::uint64_t count = std::min(per_chunk, total_blocks() - first);
        for (std::uint64_t i = 0; i < count; ++i) {
          fill_block(seed_, first + i, 0,
                     std::span(payload).subspan(i * kStripBytes, kStripBytes));
        }
        ++tallies[t].attempted;
        client.write(first * kStripBytes,
                     std::span(payload).first(count * kStripBytes));
      }
    } catch (const std::exception& error) {
      tallies[t].fail(std::string("prefill: ") + error.what());
    }
  });
  for (const Tally& t : tallies) tally.merge(t);
  // Make the prefill durable, so no timed window pays for its writeback.
  array_->sync();
  return seconds_since(start);
}

void SocketBench::inject_failure(Tally& tally) {
  if (!spec_.degraded && !spec_.rebuilding) return;
  server_.reset();
  start_server(/*throttled=*/true);
  ++tally.attempted;
  try {
    server::Client admin(kHost, server_->port(), kClientTimeoutMs);
    admin.fail_disk(failed_disk());
  } catch (const std::exception& error) {
    tally.fail(std::string("fail disk: ") + error.what());
  }
}

void SocketBench::teardown() {
  close();
  std::error_code ignored;
  std::filesystem::remove_all(dir_, ignored);
}

bool SocketBench::verify(std::uint64_t first_block,
                         std::span<const std::uint8_t> data,
                         std::vector<std::uint8_t>& scratch) const {
  scratch.resize(kStripBytes);
  const std::uint64_t blocks = data.size() / kStripBytes;
  for (std::uint64_t i = 0; i < blocks; ++i) {
    fill_block(seed_, first_block + i, versions_[first_block + i], scratch);
    if (std::memcmp(data.data() + i * kStripBytes, scratch.data(), kStripBytes) != 0) {
      return false;
    }
  }
  return true;
}

void SocketBench::connection_loop(std::size_t connection, std::uint64_t stream_seed,
                                  Clock::time_point start,
                                  Clock::time_point window_start,
                                  Clock::time_point window_end,
                                  const std::atomic<bool>& stop, SpanLane* lane,
                                  WindowResult& out, Tally& tally) {
  std::unique_ptr<server::Client> client;
  try {
    client = std::make_unique<server::Client>(kHost, server_->port(),
                                              kClientTimeoutMs);
  } catch (const std::exception& error) {
    tally.fail(std::string("connect: ") + error.what());
    return;
  }
  // Timer slack would add up to 50 us to every sleep of the sender.
  const bool open_loop = out.open_loop;
  if (open_loop) ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  OpStream stream(spec_, stream_seed, connection, total_blocks(),
                  open_loop ? spec_.rebuild_load_ops_per_s : 0.0);
  std::vector<std::uint8_t> payload(spec_.request_bytes);
  std::vector<std::uint8_t> scratch;
  const auto schedule_close = after(window_end, kScheduleSlackS);
  std::uint64_t request = 0;
  // Open loop: every request due before the window closes is sent, however
  // late, so the offered load is the same whatever the server's speed.
  while (open_loop || !stop.load(std::memory_order_acquire)) {
    const Op op = stream.next();
    const std::size_t bytes = op.blocks * kStripBytes;
    Clock::time_point due{};
    if (open_loop) {
      due = after(start, op.due_s);
      if (due >= window_end) break;
      wait_until(due);
    }
    if (op.write) {
      for (std::uint32_t i = 0; i < op.blocks; ++i) {
        fill_block(seed_, op.block + i, ++versions_[op.block + i],
                   std::span(payload).subspan(i * kStripBytes, kStripBytes));
      }
    }
    ++tally.attempted;
    const auto t0 = Clock::now();
    if (!open_loop) due = t0;
    bool ok = true;
    std::vector<std::uint8_t> data;
    try {
      if (op.write) {
        client->write(op.block * kStripBytes, std::span(payload).first(bytes));
      } else {
        data = client->read(op.block * kStripBytes, static_cast<std::uint32_t>(bytes));
      }
    } catch (const std::exception& error) {
      ok = false;
      tally.fail(std::string(op.write ? "write: " : "read: ") + error.what());
    }
    const auto t1 = Clock::now();
    if (ok && !op.write && !verify(op.block, data, scratch)) {
      ok = false;
      tally.fail("read at block " + std::to_string(op.block) +
                 " returned bytes that were never written there");
    }
    if (lane != nullptr) {
      // Open-loop requests get a parent span from when they were due, so
      // the time spent waiting to be sent shows beside the client call.
      const std::uint64_t id = (static_cast<std::uint64_t>(connection) << 40) | request;
      const std::int64_t parent =
          open_loop ? lane->add("request", id, -1, lane->at_us(due), lane->at_us(t1)) : -1;
      lane->add(op.write ? "client.write" : "client.read", id, parent,
                lane->at_us(t0), lane->at_us(t1));
    }
    ++request;
    if (ok) ++out.all_ops;
    if (due < window_start || due >= window_end) continue;
    if (open_loop) {
      ++out.due_in_window;
      if (t0 <= schedule_close) ++out.sent_on_time;
      out.lag_us.push_back(micros(t0 - due));
    }
    if (!ok) continue;
    out.add(std::chrono::duration<double>(due - window_start).count(), micros(t1 - due),
            op.write);
  }
}

double SocketBench::fail_and_wait(server::Client& admin, std::size_t disk,
                                  Tally& tally) {
  ++tally.attempted;
  try {
    admin.fail_disk(disk);
  } catch (const std::exception& error) {
    tally.fail(std::string("fail disk: ") + error.what());
    return -1.0;
  }
  const auto ack = Clock::now();
  while (array_->array().any_failed()) {
    if (seconds_since(ack) > kRebuildDeadlineS) {
      tally.fail("rebuild of disk " + std::to_string(disk) + " did not finish");
      return -1.0;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  return seconds_since(ack);
}

WindowResult SocketBench::run_window(std::size_t window, double warmup_s,
                                     double seconds, bool traced,
                                     Clock::time_point trace_origin, Tally& tally,
                                     bool rebuild_pass) {
  const std::size_t n = spec_.connections;
  const std::uint64_t stream_seed = mix(seed_, window);
  const auto start = Clock::now();
  const auto window_start = after(start, warmup_s);
  const auto window_end = after(window_start, seconds);
  std::atomic<bool> stop{false};
  std::vector<WindowResult> parts(n);
  for (WindowResult& p : parts) p.open(seconds, rebuild_pass);
  std::vector<Tally> tallies(n + 1);
  WindowResult out;
  out.open(seconds, rebuild_pass);
  if (traced) {
    for (std::size_t c = 0; c < n; ++c) {
      out.lanes.push_back(std::make_unique<SpanLane>(
          spec_.name + " conn " + std::to_string(c), trace_origin, kSpansPerLane));
    }
  }
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < n; ++c) {
    threads.emplace_back([&, c] {
      connection_loop(c, stream_seed, start, window_start, window_end, stop,
                      traced ? out.lanes[c].get() : nullptr, parts[c], tallies[c]);
    });
  }
  if (rebuild_pass) {
    // One pass over the disks, a failure per slot; each rebuild completes
    // before the next disk fails.
    const std::size_t disks = array_->layout().disks();
    try {
      server::Client admin(kHost, server_->port(), kClientTimeoutMs);
      for (std::size_t i = 0; i < disks; ++i) {
        std::this_thread::sleep_until(
            after(window_start, seconds * static_cast<double>(i) / static_cast<double>(disks)));
        const double s = fail_and_wait(admin, (seed_ + i) % disks, tallies[n]);
        if (s < 0.0) break;
        out.rebuild_s.push_back(s);
      }
    } catch (const std::exception& error) {
      tallies[n].fail(std::string("admin connect: ") + error.what());
    }
  }
  if (!rebuild_pass) {
    // The host's steal in each slice.
    const std::size_t slices = out.reads.size();
    std::this_thread::sleep_until(window_start);
    CpuTimes last = read_cpu_times();
    for (std::size_t k = 0; k < slices; ++k) {
      std::this_thread::sleep_until(after(
          window_start, seconds * static_cast<double>(k + 1) / static_cast<double>(slices)));
      const CpuTimes now = read_cpu_times();
      const double total = now.total - last.total;
      out.steal.push_back(total > 0.0 ? (now.steal - last.steal) / total : 0.0);
      last = now;
    }
  }
  std::this_thread::sleep_until(window_end);
  stop.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();

  for (std::size_t c = 0; c < n; ++c) {
    const WindowResult& p = parts[c];
    for (std::size_t k = 0; k < out.reads.size(); ++k) {
      out.reads[k].merge(p.reads[k]);
      out.writes[k].merge(p.writes[k]);
    }
    out.lag_us.insert(out.lag_us.end(), p.lag_us.begin(), p.lag_us.end());
    out.all_ops += p.all_ops;
    out.due_in_window += p.due_in_window;
    out.sent_on_time += p.sent_on_time;
  }
  for (const Tally& t : tallies) tally.merge(t);
  return out;
}

bool SocketBench::heal(Tally& tally) {
  if (!array_->array().any_failed()) return true;
  // Lift the crawl or the pacing: a fresh unthrottled server resumes the
  // pending rebuild.
  server_.reset();
  start_server(/*throttled=*/false);
  const auto start = Clock::now();
  while (array_->array().any_failed()) {
    if (seconds_since(start) > kRebuildDeadlineS) {
      tally.fail("pending rebuild did not finish");
      return false;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  return true;
}

std::vector<double> SocketBench::idle_rebuilds(std::size_t count, Tally& tally) {
  std::vector<double> samples;
  if (!heal(tally)) return samples;
  try {
    server::Client admin(kHost, server_->port(), kClientTimeoutMs);
    const std::size_t disks = array_->layout().disks();
    const std::size_t first = static_cast<std::size_t>(seed_ % disks);
    for (std::size_t i = 0; i < count; ++i) {
      const double s = fail_and_wait(admin, (first + i) % disks, tally);
      if (s < 0.0) break;
      samples.push_back(s);
    }
  } catch (const std::exception& error) {
    tally.fail(std::string("admin connect: ") + error.what());
  }
  return samples;
}

WindowResult SocketBench::loaded_rebuilds(Tally& tally) {
  if (!heal(tally)) return {};
  const double pass_s = kRebuildSlotS * static_cast<double>(array_->layout().disks());
  return run_window(2, 0.2, pass_s, false, Clock::now(), tally, /*rebuild_pass=*/true);
}

void SocketBench::readback(Tally& tally) {
  const std::uint64_t per_chunk = kMiB / kStripBytes;
  const std::uint64_t chunks = (total_blocks() + per_chunk - 1) / per_chunk;
  std::vector<Tally> tallies(kBulkThreads);
  run_threads(kBulkThreads, [&](std::size_t t) {
    std::vector<std::uint8_t> scratch;
    try {
      server::Client client(kHost, server_->port(), kClientTimeoutMs);
      for (std::uint64_t c = t; c < chunks; c += kBulkThreads) {
        const std::uint64_t first = c * per_chunk;
        const std::uint64_t count = std::min(per_chunk, total_blocks() - first);
        ++tallies[t].attempted;
        const auto data = client.read(first * kStripBytes,
                                      static_cast<std::uint32_t>(count * kStripBytes));
        if (data.size() != count * kStripBytes || !verify(first, data, scratch)) {
          tallies[t].fail("readback mismatch in MiB " + std::to_string(c));
        }
      }
    } catch (const std::exception& error) {
      tallies[t].fail(std::string("readback: ") + error.what());
    }
  });
  for (const Tally& t : tallies) tally.merge(t);
}

void SocketBench::reopen_and_scrub(Tally& tally) {
  close();
  ++tally.attempted;
  try {
    array_ = std::make_unique<server::PersistentArray>(dir_);
    if (array_->array().any_failed()) {
      tally.fail("reopened array still has failed disks");
      return;
    }
    oi::ThreadPool pool(kBulkThreads);
    const std::string violation = array_->array().scrub(pool);
    if (!violation.empty()) tally.fail("scrub after reopen: " + violation);
  } catch (const std::exception& error) {
    tally.fail(std::string("reopen: ") + error.what());
  }
}

}  // namespace e2e
