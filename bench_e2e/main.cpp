// bench_e2e: the end-to-end data-plane benchmark. One workload per run:
//
//   bench_e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --dir <array directory> [--trace-out <spans.json>]
//
// --trace 0 measures what a client sees at the socket and prints the
// end-to-end metrics; --trace 1 turns on the server's metrics registry and
// client spans and replays the workload down the in-process layer ladder,
// printing the per-layer metrics. Either way the run checks every byte it
// reads, reads the whole array back, reopens it from disk and scrubs it.
// The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exit status is 1 when any check failed. A run whose figures cannot be
// trusted -- the array is not on the private tmpfs, a p99 has too few samples
// beyond it, or the open-loop generator fell behind -- prints no result and
// exits 4.
#include <fcntl.h>
#include <sched.h>
#include <sys/mount.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>

#include "ladder.hpp"
#include "socket_run.hpp"
#include "util/metrics.hpp"
#include "util/stats.hpp"

namespace {

using namespace e2e;

/// Set-ups per untraced run; setup_s is their median.
constexpr std::size_t kSetupRuns = 5;
constexpr double kWarmupS = 1.0;
/// Idle single-disk rebuilds timed after each set-up, for the workloads
/// that do not time rebuilds under their own traffic: 40 in five bursts
/// spread over the run, so no one slow moment of the host sets rebuild_s.
constexpr std::size_t kIdleRebuildsPerSetup = 8;
/// Share of the window's one-second slices the figures come from: those in
/// which the hypervisor stole the least CPU time from this machine.
constexpr double kKeptShare = 0.5;
/// A p99 is only reported as valid with at least this many samples beyond.
constexpr std::size_t kTailSamples = 10;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string dir;
  std::string trace_out;
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("flag " + flag + " needs a value");
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = std::stoi(value);
    } else if (flag == "--dir") {
      args.dir = value;
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (args.workload.empty() || args.dir.empty() || args.seconds <= 0.0 ||
      (args.trace != 0 && args.trace != 1)) {
    throw std::invalid_argument(
        "usage: bench_e2e --workload <name> --seed <n> --seconds <s> --trace <0|1> "
        "--dir <dir> [--trace-out <file>]");
  }
  return args;
}

bool write_proc_file(const char* path, const std::string& text) {
  const int fd = ::open(path, O_WRONLY);
  if (fd < 0) return false;
  const bool ok = ::write(fd, text.data(), text.size()) ==
                  static_cast<ssize_t>(text.size());
  ::close(fd);
  return ok;
}

/// Mounts a tmpfs over `dir`, visible only to this process: a private
/// mount namespace (inside a user namespace when the process lacks the
/// capability for a plain one) keeps the mount off the rest of the system,
/// and it disappears when the process exits. Keeps the array in memory,
/// where a write is a copy into RAM and a flush is free, so the benchmark
/// measures the program rather than a filesystem journal -- without writing
/// anywhere but under `dir`. Must run before any thread starts. Returns an
/// empty string on success, else why the plain directory is used.
std::string mount_private_tmpfs(const std::string& dir) {
  if (::unshare(CLONE_NEWNS) != 0) {
    const std::string uid = std::to_string(::geteuid());
    const std::string gid = std::to_string(::getegid());
    if (::unshare(CLONE_NEWUSER | CLONE_NEWNS) != 0) {
      return std::string("unshare: ") + std::strerror(errno);
    }
    write_proc_file("/proc/self/setgroups", "deny");
    if (!write_proc_file("/proc/self/uid_map", "0 " + uid + " 1") ||
        !write_proc_file("/proc/self/gid_map", "0 " + gid + " 1")) {
      return "cannot map ids in the user namespace";
    }
  }
  // Private propagation first, so the tmpfs can never show up outside.
  if (::mount(nullptr, "/", nullptr, MS_REC | MS_PRIVATE, nullptr) != 0) {
    return std::string("private propagation: ") + std::strerror(errno);
  }
  if (::mount("tmpfs", dir.c_str(), "tmpfs", MS_NOSUID | MS_NODEV,
              "size=2g,mode=0700") != 0) {
    return std::string("mount tmpfs: ") + std::strerror(errno);
  }
  return {};
}

double median(std::vector<double> v) { return v.empty() ? 0.0 : oi::percentile(v, 0.5); }
/// The median of the faster half of the samples: rebuild times taken while
/// the host was slow do not set it.
double lower_quartile(std::vector<double> v) {
  return v.empty() ? 0.0 : oi::percentile(v, 0.25);
}
double p99(const std::vector<double>& v) { return v.empty() ? 0.0 : oi::percentile(v, 0.99); }

/// A window's client-side figures over the seconds the host disturbed least.
/// On a shared VM the hypervisor steals from none to a quarter of the CPU
/// time, varying from second to second, and a slice's p99 follows its steal
/// (about 150 us at none, 1-3 ms at 15-25 % on oltp_4k). So the window is cut
/// into one-second slices, ranked by the steal measured in each, and
/// throughput, p50 and p99 are taken over the kKeptShare least stolen merged.
/// The choice depends on the host alone, not on any latency: a stall the
/// program causes, steady or intermittent, lands in kept and left-out slices
/// alike, and shows.
struct SliceStats {
  std::size_t slices = 0;  ///< slices the figures come from
  std::size_t dropped = 0;  ///< most stolen slices left out
  double kept_steal = 0.0;  ///< highest steal share among the kept slices
  double max_steal = 0.0;   ///< highest steal share of any slice
  double ops_per_s = 0.0;
  double ops_min = 0.0;  ///< slowest and fastest slice, for the log
  double ops_max = 0.0;
  double read_p50_us = 0.0;
  double read_p99_us = 0.0;
  double write_p50_us = 0.0;
  double write_p99_us = 0.0;
  /// Why the tails cannot be trusted; empty when valid.
  std::string invalid;
};

SliceStats slice_stats(const WindowResult& w) {
  SliceStats out;
  const std::size_t slices = w.reads.size();
  const double width = w.seconds / static_cast<double>(slices);
  std::vector<std::size_t> order(slices);
  std::vector<double> ops(slices);
  std::vector<double> steal(w.steal);
  steal.resize(slices, 0.0);
  for (std::size_t k = 0; k < slices; ++k) {
    order[k] = k;
    ops[k] = static_cast<double>(w.reads[k].count() + w.writes[k].count()) / width;
  }
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) { return steal[a] < steal[b]; });
  out.slices = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::lround(kKeptShare * static_cast<double>(slices))));
  out.dropped = slices - out.slices;
  out.kept_steal = steal[order[out.slices - 1]];
  out.max_steal = steal[order.back()];
  LatencyHistogram reads, writes;
  for (std::size_t i = 0; i < out.slices; ++i) {
    reads.merge(w.reads[order[i]]);
    writes.merge(w.writes[order[i]]);
  }
  out.ops_per_s = static_cast<double>(reads.count() + writes.count()) /
                  (width * static_cast<double>(out.slices));
  out.ops_min = *std::min_element(ops.begin(), ops.end());
  out.ops_max = *std::max_element(ops.begin(), ops.end());
  out.read_p50_us = reads.quantile(0.5);
  out.read_p99_us = reads.quantile(0.99);
  out.write_p50_us = writes.quantile(0.5);
  out.write_p99_us = writes.quantile(0.99);
  for (const bool write : {false, true}) {
    const LatencyHistogram& lat = write ? writes : reads;
    if (lat.count_above(lat.quantile(0.99)) < kTailSamples) {
      out.invalid += std::string(write ? "write" : "read") +
                     " p99 has fewer than 10 samples beyond it; ";
    }
  }
  return out;
}

/// Why an open-loop window's generator fell behind its schedule; empty when
/// it kept up (or the window was closed loop).
std::string schedule_check(const WindowResult& w) {
  if (!w.open_loop || w.sent_on_time == w.due_in_window) return {};
  return "open-loop generator fell behind the schedule (" +
         std::to_string(w.due_in_window - w.sent_on_time) +
         " requests sent over a second after the window closed); ";
}

/// Mean client latency over a whole window, reads and writes together.
double mean_latency_us(const WindowResult& w) {
  LatencyHistogram all = w.all(false);
  all.merge(w.all(true));
  return all.count() ? all.sum_us() / static_cast<double>(all.count()) : 0.0;
}

const oi::metrics::Snapshot::Histogram* find_hist(const oi::metrics::Snapshot& snap,
                                                  const std::string& name) {
  const auto it = snap.histograms.find(name);
  return it == snap.histograms.end() ? nullptr : &it->second;
}

double hist_mean(const oi::metrics::Snapshot::Histogram* h) {
  return h && h->total ? h->sum / static_cast<double>(h->total) : 0.0;
}

/// Upper edge of the bucket holding the q-quantile (bucket resolution).
double hist_quantile(const oi::metrics::Snapshot::Histogram* h, double q) {
  if (!h || h->total == 0) return 0.0;
  const auto target = static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(h->total)));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < h->counts.size(); ++i) {
    seen += h->counts[i];
    if (seen >= target) {
      return h->uppers.empty() ? h->low + static_cast<double>(i + 1) * h->bucket_width
                               : h->uppers[i];
    }
  }
  return h->uppers.empty() ? 0.0 : h->uppers.back();
}

/// Contended share of domain-lock acquisitions over the domains the
/// server's profile lists (its hottest ones).
double contended_ratio(const std::string& profile) {
  std::istringstream lines(profile);
  std::string line;
  double acquisitions = 0.0, contended = 0.0;
  while (std::getline(lines, line)) {
    std::istringstream fields(line);
    std::string word;
    fields >> word;
    if (word != "domain") continue;
    std::uint64_t id = 0, value = 0;
    fields >> id;
    while (fields >> word >> value) {
      if (word == "acquisitions") acquisitions += static_cast<double>(value);
      if (word == "contended") contended += static_cast<double>(value);
    }
  }
  return acquisitions > 0.0 ? contended / acquisitions : 0.0;
}

Metrics server_metrics() {
  Metrics m;
  const auto snap = oi::metrics::Registry::instance().snapshot();
  for (const std::string stage : {"decode", "queue", "lock", "io", "codec", "reply"}) {
    const auto* h = find_hist(snap, "server.stage." + stage + ".latency_us");
    m["server.stage." + stage + ".mean_us"] = {hist_mean(h), "us"};
    m["server.stage." + stage + ".p99_us"] = {hist_quantile(h, 0.99), "us"};
  }
  m["server.req.read.mean_us"] = {hist_mean(find_hist(snap, "server.req.read.latency_us")),
                                  "us"};
  m["server.req.write.mean_us"] = {
      hist_mean(find_hist(snap, "server.req.write.latency_us")), "us"};
  const auto degraded = snap.counters.find("core.array.degraded_reads");
  m["array.degraded_reads"] = {
      degraded == snap.counters.end() ? 0.0 : static_cast<double>(degraded->second),
      "count"};
  return m;
}

/// Prints every metric with its unit and the failure counts; then, unless the
/// run is invalid, the JSON result line.
void print_result(const Tally& tally, const Metrics& metrics, bool valid) {
  for (const auto& [name, metric] : metrics) {
    std::cout << std::left << std::setw(40) << name << ' ' << std::setprecision(6)
              << metric.value << ' ' << metric.unit << '\n';
  }
  std::cout << "attempted " << tally.attempted << " failed " << tally.failed
            << " failed_ops_ratio "
            << (tally.attempted ? static_cast<double>(tally.failed) /
                                      static_cast<double>(tally.attempted)
                                : 1.0)
            << '\n';
  for (const std::string& error : tally.errors) std::cerr << "failure: " << error << '\n';
  if (!valid) return;
  std::ostringstream json;
  json << std::setprecision(12) << "{\"correct\": " << (tally.failed == 0 ? "true" : "false")
       << ", \"attempted\": " << tally.attempted << ", \"failed\": " << tally.failed
       << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    json << (first ? "" : ", ") << '"' << name << "\": {\"value\": "
         << (std::isfinite(metric.value) ? metric.value : 0.0) << ", \"unit\": \""
         << metric.unit << "\"}";
    first = false;
  }
  json << "}}";
  std::cout << json.str() << std::endl;
}

Metrics run_untraced(const WorkloadSpec& spec, const Args& args, Tally& tally,
                     std::string& invalid) {
  std::vector<double> setups;
  std::vector<double> rebuilds;
  std::unique_ptr<SocketBench> bench;
  for (std::size_t i = 0; i < kSetupRuns; ++i) {
    if (bench) bench->teardown();
    bench = std::make_unique<SocketBench>(spec, args.seed,
                                          args.dir + "/array-" + std::to_string(i),
                                          kWarmupS + args.seconds);
    setups.push_back(bench->setup(tally));
    if (!spec.rebuilding) {
      const auto burst = bench->idle_rebuilds(kIdleRebuildsPerSetup, tally);
      rebuilds.insert(rebuilds.end(), burst.begin(), burst.end());
    }
  }
  bench->inject_failure(tally);
  const WindowResult w = bench->run_window(0, kWarmupS, args.seconds, false,
                                           Clock::now(), tally);
  WindowResult pass;
  if (spec.rebuilding) {
    pass = bench->loaded_rebuilds(tally);
    rebuilds = pass.rebuild_s;
  } else {
    bench->heal(tally);
  }
  bench->readback(tally);
  bench->reopen_and_scrub(tally);
  bench->teardown();

  const SliceStats stats = slice_stats(w);
  invalid = stats.invalid + schedule_check(pass);
  std::cout << "workload " << spec.name << " seed " << args.seed << ": "
            << w.all(false).count() << " read and " << w.all(true).count()
            << " write samples, figures from the " << stats.slices << " of "
            << w.reads.size() << " slices with the least host steal (at most "
            << 100.0 * stats.kept_steal << " %; the " << stats.dropped
            << " left out up to " << 100.0 * stats.max_steal << " %), " << rebuilds.size()
            << " rebuilds";
  if (!rebuilds.empty()) {
    std::cout << " (" << *std::min_element(rebuilds.begin(), rebuilds.end()) << " to "
              << *std::max_element(rebuilds.begin(), rebuilds.end()) << " s)";
  }
  std::cout << ", ops/s per slice " << stats.ops_min << " to " << stats.ops_max;
  if (pass.open_loop) std::cout << ", generator lag p99 " << p99(pass.lag_us) << " us";
  std::cout << '\n';

  Metrics m;
  m["setup_s"] = {median(setups), "s"};
  m["ops_per_s"] = {stats.ops_per_s, "1/s"};
  m["read_p50_us"] = {stats.read_p50_us, "us"};
  m["read_p99_us"] = {stats.read_p99_us, "us"};
  m["write_p50_us"] = {stats.write_p50_us, "us"};
  m["write_p99_us"] = {stats.write_p99_us, "us"};
  m["rebuild_s"] = {lower_quartile(rebuilds), "s"};
  m["peak_rss_MB"] = {peak_rss_mb(), "MB"};
  return m;
}

Metrics run_traced(const WorkloadSpec& spec, const Args& args, Tally& tally,
                   std::string& invalid) {
  const auto origin = Clock::now();
  SocketBench bench(spec, args.seed, args.dir + "/array-traced",
                    1.5 * kWarmupS + args.seconds);
  bench.setup(tally);
  bench.inject_failure(tally);
  const double half = args.seconds / 2.0;
  // The same workload untraced, then traced: their latency difference is
  // the cost of observing.
  const WindowResult plain = bench.run_window(0, kWarmupS, half, false, origin, tally);
  auto& registry = oi::metrics::Registry::instance();
  registry.reset_values();
  oi::metrics::set_enabled(true);
  const core::IoCounters before = bench.array().array().counters();
  WindowResult traced = bench.run_window(1, kWarmupS / 2.0, half, true, origin, tally);
  const core::IoCounters delta = bench.array().array().counters() - before;
  Metrics m = server_metrics();
  std::string profile;
  try {
    server::Client admin("127.0.0.1", bench.server().port());
    profile = admin.profile();
  } catch (const std::exception& error) {
    tally.fail(std::string("profile: ") + error.what());
  }
  oi::metrics::set_enabled(false);

  WindowResult pass;
  if (spec.rebuilding) {
    pass = bench.loaded_rebuilds(tally);
  } else {
    bench.heal(tally);
  }
  bench.readback(tally);
  bench.reopen_and_scrub(tally);
  const double persist_us = persist_rebuild_step_us(
      bench.array(), static_cast<std::size_t>(args.seed % bench.array().layout().disks()),
      tally);
  const std::size_t failed_disk = bench.failed_disk();
  bench.close();

  LadderInput input;
  input.spec = &spec;
  input.seed = args.seed;
  input.dir = bench.dir();
  input.versions = &bench.versions();
  input.degraded_disk = failed_disk;
  input.max_ops = spec.request_bytes > kStripBytes ? 200 : 20000;
  input.trace_origin = origin;
  LadderResult ladder = run_ladder(input, tally);
  bench.teardown();
  for (auto& [name, metric] : ladder.metrics) m[name] = metric;
  for (auto& [name, metric] : codec_kernels()) m[name] = metric;

  // Server-side per-op strip I/O over everything the traced window sent
  // (its warm-up included); on rebuild_4k it includes the rebuild's I/O.
  const double ops = static_cast<double>(std::max<std::uint64_t>(traced.all_ops, 1));
  m["array.strip_reads_per_op"] = {static_cast<double>(delta.strip_reads) / ops, "count"};
  m["array.strip_writes_per_op"] = {static_cast<double>(delta.strip_writes) / ops, "count"};
  m["array.parity_writes_per_op"] = {static_cast<double>(delta.parity_strip_writes) / ops,
                                     "count"};
  m["lock.contended_ratio"] = {contended_ratio(profile), "ratio"};
  m["persist.rebuild_step.mean_us"] = {persist_us, "us"};
  m["gen.lag.p99_us"] = {pass.open_loop ? p99(pass.lag_us) : 0.0, "us"};
  m["gen.read_ops"] = {static_cast<double>(plain.all(false).count()), "count"};
  m["gen.write_ops"] = {static_cast<double>(plain.all(true).count()), "count"};
  const double plain_mean = mean_latency_us(plain);
  m["trace.overhead_pct"] = {
      plain_mean > 0.0 ? (mean_latency_us(traced) / plain_mean - 1.0) * 100.0 : 0.0, "%"};
  invalid = slice_stats(plain).invalid + schedule_check(pass);

  if (!args.trace_out.empty()) {
    std::vector<const SpanLane*> lanes;
    for (const auto& lane : traced.lanes) lanes.push_back(lane.get());
    lanes.push_back(ladder.lane.get());
    if (write_chrome_trace(args.trace_out, lanes)) {
      std::cout << "spans written to " << args.trace_out << '\n';
    } else {
      std::cerr << "could not write spans to " << args.trace_out << '\n';
    }
  }
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    const WorkloadSpec spec = workload_by_name(args.workload);
    std::filesystem::create_directories(args.dir);
    const std::string no_tmpfs = mount_private_tmpfs(args.dir);
    if (!no_tmpfs.empty()) {
      // Figures from another filesystem measure its journal, not the program.
      std::cout << "validity: INVALID: cannot mount a private tmpfs at " << args.dir
                << " (" << no_tmpfs << ")\n";
      return 4;
    }
    std::cout << "array storage: private tmpfs at " << args.dir << '\n';
    Tally tally;
    std::string invalid;
    const Metrics metrics = args.trace ? run_traced(spec, args, tally, invalid)
                                       : run_untraced(spec, args, tally, invalid);
    std::cout << "validity: " << (invalid.empty() ? "ok" : "INVALID: " + invalid) << '\n';
    print_result(tally, metrics, invalid.empty());
    if (tally.failed != 0) return 1;
    return invalid.empty() ? 0 : 4;
  } catch (const std::exception& error) {
    std::cerr << "bench_e2e: " << error.what() << '\n';
    return 2;
  }
}
