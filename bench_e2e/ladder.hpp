// The in-process layer ladder of the traced run. The workload's generated
// request stream is replayed down the layers the server stacks on each
// other -- DomainLockTable -> core::Array -> a timing BlockStore decorator ->
// the raw FileBlockStore -- and the codec kernels, layout lookups and
// rebuild checkpoints are timed through their public functions. Each
// layer's cost is then one subtraction, and a layer's self time is its span
// minus its child spans.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/block_store.hpp"
#include "server/persistent_array.hpp"
#include "spans.hpp"

namespace e2e {

/// BlockStore decorator that times every call into the store it wraps and
/// counts strip reads and writes per disk. Single-threaded use only (the
/// ladder replays on one thread).
class TimedStore final : public core::BlockStore {
 public:
  explicit TimedStore(std::unique_ptr<core::BlockStore> inner);

  std::size_t disks() const override { return inner_->disks(); }
  std::size_t strips_per_disk() const override { return inner_->strips_per_disk(); }
  std::size_t strip_bytes() const override { return inner_->strip_bytes(); }
  void read(std::size_t disk, std::size_t offset,
            std::span<std::uint8_t> out) const override;
  void write(std::size_t disk, std::size_t offset,
             std::span<const std::uint8_t> data) override;
  void trim_disk(std::size_t disk, std::uint8_t fill) override;
  void flush() override;
  std::string describe() const override { return "timed:" + inner_->describe(); }

  struct Counts {
    std::vector<std::uint64_t> reads;   ///< strip reads per disk
    std::vector<std::uint64_t> writes;  ///< strip writes per disk
    std::uint64_t read_ns = 0;
    std::uint64_t write_ns = 0;
    std::uint64_t flushes = 0;
    std::uint64_t flush_ns = 0;
  };
  const Counts& counts() const { return counts_; }
  void reset_counts();
  std::uint64_t total_reads() const;
  std::uint64_t total_writes() const;

  /// One store call, kept until the caller collects it as a child span.
  struct Call {
    bool write = false;
    Clock::time_point start;
    Clock::time_point end;
  };
  /// Store calls since the last take, oldest first.
  std::vector<Call> take_calls();

 private:
  std::unique_ptr<core::BlockStore> inner_;
  mutable Counts counts_;
  mutable std::vector<Call> calls_;
};

/// Times PersistentArray::rebuild_step (array steps + data flush + superblock
/// checkpoint) over a full single-disk rebuild of `disk`; returns the mean
/// microseconds per 8-step call. The array must be healthy and unserved.
double persist_rebuild_step_us(server::PersistentArray& array, std::size_t disk,
                               Tally& tally);

struct LadderInput {
  const WorkloadSpec* spec = nullptr;
  std::uint64_t seed = 0;
  std::string dir;  ///< closed array directory to reopen
  /// Current block versions; updated by the replayed writes.
  std::vector<std::uint32_t>* versions = nullptr;
  std::size_t degraded_disk = 0;
  std::size_t max_ops = 0;  ///< requests of stream 0 to replay
  Clock::time_point trace_origin;
};

struct LadderResult {
  Metrics metrics;
  std::unique_ptr<SpanLane> lane;
};

/// Replays the request stream down the layers, then rebuilds three disks
/// on the same array, checking that the measured per-disk rebuild reads are
/// exactly layout::per_disk_read_load of the plan (a mismatch is a failure).
LadderResult run_ladder(const LadderInput& input, Tally& tally);

/// codes.{xor_acc,xor_delta}.GBps of the active gf:: kernel at strip size.
Metrics codec_kernels();

}  // namespace e2e
