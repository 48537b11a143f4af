#include "layers.hpp"

#include <algorithm>

namespace perfbench {

clio::io::PoolStats pool_delta(const clio::io::PoolStats& before,
                               const clio::io::PoolStats& after) {
  clio::io::PoolStats d;
  d.hits = after.hits - before.hits;
  d.misses = after.misses - before.misses;
  d.evictions = after.evictions - before.evictions;
  d.writebacks = after.writebacks - before.writebacks;
  d.prefetches = after.prefetches - before.prefetches;
  d.flush_write_calls = after.flush_write_calls - before.flush_write_calls;
  d.flush_write_pages = after.flush_write_pages - before.flush_write_pages;
  d.gather_read_calls = after.gather_read_calls - before.gather_read_calls;
  d.gather_read_pages = after.gather_read_pages - before.gather_read_pages;
  return d;
}

void pool_add(clio::io::PoolStats& total, const clio::io::PoolStats& delta) {
  total.hits += delta.hits;
  total.misses += delta.misses;
  total.evictions += delta.evictions;
  total.writebacks += delta.writebacks;
  total.prefetches += delta.prefetches;
  total.flush_write_calls += delta.flush_write_calls;
  total.flush_write_pages += delta.flush_write_pages;
  total.gather_read_calls += delta.gather_read_calls;
  total.gather_read_pages += delta.gather_read_pages;
}

void report_pool_layer(RunResult& result, const clio::io::PoolStats& delta,
                       std::uint64_t ops, double user_bytes,
                       std::size_t page_size) {
  const auto per_op = [ops](std::uint64_t n) {
    return ops > 0 ? static_cast<double>(n) / static_cast<double>(ops) : 0.0;
  };
  const auto ratio = [](std::uint64_t num, std::uint64_t den) {
    return den > 0 ? static_cast<double>(num) / static_cast<double>(den)
                   : 0.0;
  };
  result.layer("io.pool_hit_ratio",
               ratio(delta.hits, delta.hits + delta.misses), "ratio");
  result.layer("io.pool_misses_per_op", per_op(delta.misses), "1/op");
  result.layer("io.pool_evictions_per_op", per_op(delta.evictions), "1/op");
  result.layer("io.pool_writebacks_per_op", per_op(delta.writebacks),
               "1/op");
  result.layer("io.prefetch_pages_per_op", per_op(delta.prefetches), "1/op");
  result.layer("io.gather_pages_per_call",
               ratio(delta.gather_read_pages, delta.gather_read_calls),
               "pages/call");
  result.layer("io.flush_pages_per_call",
               ratio(delta.flush_write_pages, delta.flush_write_calls),
               "pages/call");
  // Pages the pool moved to or from its backing store, per byte the
  // workload asked for: loads (misses + prefetches) plus write-backs
  // (evictions' and flushes').
  const std::uint64_t store_pages = delta.misses + delta.prefetches +
                                    delta.writebacks +
                                    delta.flush_write_pages;
  result.layer("io.store_bytes_per_user_byte",
               user_bytes > 0.0 ? static_cast<double>(store_pages) *
                                      static_cast<double>(page_size) /
                                      user_bytes
                                : 0.0,
               "ratio");
}

void MergedTimer::add(const clio::util::LatencyHistogram::Snapshot& snap) {
  if (snap.count == 0) return;
  for (const auto& b : snap.buckets) {
    auto [it, fresh] = buckets_.try_emplace(b.lo_ns, b);
    if (!fresh) it->second.count += b.count;
  }
  count_ += snap.count;
  total_ns_ += snap.total_ns;
  min_ns_ = std::min(min_ns_, snap.min_ns);
  max_ns_ = std::max(max_ns_, snap.max_ns);
}

double MergedTimer::p50_us() const {
  if (count_ == 0) return 0.0;
  const double rank = 0.5 * static_cast<double>(count_ - 1);
  std::uint64_t seen = 0;
  for (const auto& [lo, b] : buckets_) {
    if (static_cast<double>(seen + b.count) > rank) {
      const double frac =
          (rank - static_cast<double>(seen)) / static_cast<double>(b.count);
      const double ns = static_cast<double>(b.lo_ns) +
                        frac * static_cast<double>(b.hi_ns - b.lo_ns);
      return std::clamp(ns, static_cast<double>(min_ns_),
                        static_cast<double>(max_ns_)) /
             1e3;
    }
    seen += b.count;
  }
  return static_cast<double>(max_ns_) / 1e3;
}

double MergedTimer::mean_us() const {
  return count_ > 0 ? static_cast<double>(total_ns_) /
                          static_cast<double>(count_) / 1e3
                    : 0.0;
}

}  // namespace perfbench
