#pragma once

#include <cstdint>
#include <unordered_map>

#include "io/file_store.hpp"

namespace clio::io {

/// Readahead policy.  window = 0 disables readahead entirely.
struct PrefetchConfig {
  std::size_t window = 4;      ///< pages fetched ahead once sequential
  std::size_t min_streak = 2;  ///< consecutive pages before kicking in
};

/// A contiguous run of pages proposed for readahead ([first, first+count)).
/// Sequential readahead is always contiguous, so returning a range instead
/// of materializing a page vector keeps the hot path allocation-free, and
/// the pool loads each contiguous cold run with a single vectored
/// BackingStore::readv gather (mirroring the write-back coalescing).
struct PrefetchRange {
  std::uint64_t first = 0;
  std::size_t count = 0;
  [[nodiscard]] bool empty() const { return count == 0; }
};

/// Detects per-file sequential page access and proposes readahead.
///
/// The paper attributes its cold/warm asymmetries to exactly this mechanism:
/// "At the time when a read, write, or seek operation is performed, a
/// prefetch operation will be invoked accordingly."  The policy here is the
/// classic streak detector: after `min_streak` consecutive pages, propose
/// the next `window` pages past the access.  ManagedFile reports each call
/// once, as the whole run of pages it touched, so a multi-page call
/// proposes one window beyond its end rather than one per page.
/// Stateless about residency — the BufferPool skips pages that are already
/// cached.
class SequentialPrefetcher {
 public:
  explicit SequentialPrefetcher(PrefetchConfig config = {});

  /// Records an access to pages [page, page + pages) of `file` and returns
  /// the run worth prefetching after it (empty until the sequential streak
  /// is established).  The result is the same as reporting each page in
  /// order: a run that starts right after (or on) the previous access's
  /// last page extends the streak by its length.
  PrefetchRange propose(FileId file, std::uint64_t page,
                        std::size_t pages = 1);

  /// Forgets per-file state (e.g. after close).
  void forget(FileId file);

  void reset();

  [[nodiscard]] const PrefetchConfig& config() const { return config_; }

 private:
  struct StreamState {
    std::uint64_t last_page = UINT64_MAX;
    std::size_t streak = 0;
  };

  PrefetchConfig config_;
  std::unordered_map<FileId, StreamState> streams_;
};

}  // namespace clio::io
