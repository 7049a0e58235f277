// The socket-level half of the benchmark: a server::PersistentArray served by
// an in-process server::BlockServer (the class oiraidd runs), driven over
// loopback by server::Client connections -- one thread per connection.
#pragma once

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "server/block_server.hpp"
#include "server/persistent_array.hpp"
#include "spans.hpp"

namespace e2e {

/// What one measured window saw, merged over its connections.
struct WindowResult {
  double seconds = 0.0;    ///< measured window length
  bool open_loop = false;  ///< requests were sent on a schedule
  /// Client latency of successful requests per one-second slice of the
  /// window (by start time; open loop: by due time, and timed from it).
  std::vector<LatencyHistogram> reads;
  std::vector<LatencyHistogram> writes;
  /// Open loop: how late each request was sent after it was due.
  std::vector<double> lag_us;
  std::vector<double> rebuild_s;  ///< rebuild pass: fail ack -> healthy
  /// Closed loop: share of the machine's CPU time stolen by the hypervisor
  /// in each slice.
  std::vector<double> steal;
  std::uint64_t all_ops = 0;      ///< completed, warm-up and tail included
  /// Open loop: requests due inside the window (all of them are sent), and
  /// how many of them were sent by a second after the window closed.
  std::uint64_t due_in_window = 0;
  std::uint64_t sent_on_time = 0;
  std::vector<std::unique_ptr<SpanLane>> lanes;  ///< traced windows only

  /// Sizes the window: `seconds` long, cut into one-second slices.
  void open(double seconds, bool open_loop);
  /// Records one request, `due_s` after the window start.
  void add(double due_s, double us, bool write);
  /// Every slice merged.
  LatencyHistogram all(bool write) const;
};

class SocketBench {
 public:
  /// `dir` must not hold an array yet; it is removed on teardown. `run_s`
  /// is how long the measured windows (warm-up included) will run.
  SocketBench(const WorkloadSpec& spec, std::uint64_t seed, std::string dir,
              double run_s);
  ~SocketBench();
  SocketBench(const SocketBench&) = delete;
  SocketBench& operator=(const SocketBench&) = delete;

  /// Creates the array, starts the server, writes every data strip (version
  /// 0 of every block) and flushes it. Returns the elapsed seconds.
  double setup(Tally& tally);
  /// Degraded and rebuilding workloads: restarts the server with their
  /// rebuild budget and fails one disk. A no-op for the others.
  void inject_failure(Tally& tally);
  /// Stops the server and deletes the array's files.
  void teardown();

  /// Runs the workload for `warmup_s` unmeasured seconds, then `seconds`
  /// measured ones. `window` salts the request stream; window 0 is the
  /// stream the in-process ladder replays. `traced` records client spans.
  /// Connections run closed loop, except in a `rebuild_pass`: that fails
  /// every disk once, spread over the window, times each rebuild from the
  /// fail ack to a healthy array, and sends the workload's requests open
  /// loop at its rebuild_load_ops_per_s.
  WindowResult run_window(std::size_t window, double warmup_s, double seconds,
                          bool traced, Clock::time_point trace_origin,
                          Tally& tally, bool rebuild_pass = false);

  /// Rebuilds any failed disk with an unthrottled server; false on failure.
  bool heal(Tally& tally);
  /// Heals, then fails `count` disks one at a time with no foreground
  /// traffic and returns each rebuild's time from the fail ack to a healthy
  /// array.
  std::vector<double> idle_rebuilds(std::size_t count, Tally& tally);
  /// Heals, then times rebuilds under the workload's open-loop rebuild load:
  /// one pass over the disks, a failure every 0.15 s.
  WindowResult loaded_rebuilds(Tally& tally);

  /// Reads every block back over the socket and checks it.
  void readback(Tally& tally);

  /// Stops the server, reopens the array from its directory, and requires a
  /// clean scrub and no failed disk.
  void reopen_and_scrub(Tally& tally);

  server::PersistentArray& array() { return *array_; }
  server::BlockServer& server() { return *server_; }
  std::vector<std::uint32_t>& versions() { return versions_; }
  std::uint64_t total_blocks() const { return versions_.size(); }
  const std::string& dir() const { return dir_; }
  /// Disk the degraded and rebuilding workloads fail (seed-chosen).
  std::size_t failed_disk() const;

  /// Closes the server and array, leaving the files in place.
  void close();

 private:
  void start_server(bool throttled);
  void connection_loop(std::size_t connection, std::uint64_t stream_seed,
                       Clock::time_point start, Clock::time_point window_start,
                       Clock::time_point window_end, const std::atomic<bool>& stop,
                       SpanLane* lane, WindowResult& out, Tally& tally);
  /// Fails `disk` and waits until the array is healthy again; returns the
  /// seconds from the fail ack to health, or a negative value on failure.
  double fail_and_wait(server::Client& admin, std::size_t disk, Tally& tally);
  /// Checks `data` against the current versions of the blocks it covers.
  bool verify(std::uint64_t first_block, std::span<const std::uint8_t> data,
              std::vector<std::uint8_t>& scratch) const;

  const WorkloadSpec& spec_;
  std::uint64_t seed_;
  std::string dir_;
  double run_s_;
  std::vector<std::uint32_t> versions_;
  std::unique_ptr<server::PersistentArray> array_;
  std::unique_ptr<server::BlockServer> server_;
};

}  // namespace e2e
