#pragma once

// Per-layer helpers that read the program's own counters: buffer-pool
// stats deltas and latency histograms merged over a run's set-ups.

#include <cstdint>
#include <map>

#include "common.hpp"
#include "io/buffer_pool.hpp"
#include "io/io_stats.hpp"
#include "util/histogram.hpp"

namespace perfbench {

/// after - before, field by field.
[[nodiscard]] clio::io::PoolStats pool_delta(const clio::io::PoolStats& before,
                                             const clio::io::PoolStats& after);
/// total += delta, field by field.
void pool_add(clio::io::PoolStats& total, const clio::io::PoolStats& delta);

/// Reports the io.pool_* / io.prefetch / io.gather / io.flush / io.store
/// metrics of one timed phase: `delta` is the pool's counter change over
/// it, `ops` and `user_bytes` what the workload did in it.
void report_pool_layer(RunResult& result, const clio::io::PoolStats& delta,
                       std::uint64_t ops, double user_bytes,
                       std::size_t page_size);

/// One timer's distribution gathered from several histogram snapshots,
/// for instance from the file system and server of every set-up of a run.
/// Bucket counts add up exactly, so the median is the one a single
/// histogram of all the samples would give.
class MergedTimer {
 public:
  void add(const clio::util::LatencyHistogram::Snapshot& snap);
  /// Median in microseconds, interpolated inside its bucket and clamped to
  /// the observed range like LatencyHistogram::quantile_ns (0 when empty).
  [[nodiscard]] double p50_us() const;
  [[nodiscard]] double mean_us() const;

 private:
  std::map<std::uint64_t, clio::util::LatencyHistogram::Bucket> buckets_;
  std::uint64_t count_ = 0;
  std::uint64_t total_ns_ = 0;
  std::uint64_t min_ns_ = UINT64_MAX;
  std::uint64_t max_ns_ = 0;
};

}  // namespace perfbench
