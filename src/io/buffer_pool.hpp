#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <unordered_map>
#include <vector>

#include "io/async_store.hpp"
#include "io/file_store.hpp"

namespace clio::io {

/// Buffer pool configuration.  Defaults give a 16 MiB cache of 4 KiB pages,
/// mirroring the OS-level I/O buffers the paper's SSCLI experiments observe.
struct BufferPoolConfig {
  std::size_t page_size = 4096;
  std::size_t capacity_pages = 4096;

  /// Number of lock-striped sub-pools.  Pages are distributed across shards
  /// by a mixed hash of (file, page_no); each shard has its own mutex, page
  /// table, LRU list, and stats, so concurrent accesses to different pages
  /// contend only when they land on the same shard.  0 = auto: one shard
  /// per 256 capacity pages, clamped to [1, 16] — small pools (tests,
  /// tight-cache ablations) keep a single shard and therefore exact global
  /// LRU order; default-sized pools get 16-way striping.
  std::size_t shards = 0;

  /// Upper bound on the number of adjacent dirty pages merged into a single
  /// vectored backing-store write during flush_file/flush_all, and on the
  /// number of adjacent cold pages merged into a single vectored gather
  /// read during prefetch_range.  1 disables coalescing on both sides (one
  /// backing call per page, the pre-sharding behaviour).
  std::size_t coalesce_pages = 64;

  /// Opt-in background readahead: when set, prefetch_range_async() claims
  /// frames inline, submits the gather batch to the pool's AsyncBackingStore
  /// and returns immediately; a single completion reaper publishes the pages
  /// as completions land, so sequential readers overlap readahead with
  /// compute.  flush_file/flush_all/discard_file and the destructor drain
  /// in-flight gathers before proceeding.
  bool async_prefetch = false;
  /// Worker count of the ThreadPoolAsyncStore the pool builds when
  /// async_prefetch is on and no external AsyncBackingStore was supplied.
  std::size_t prefetch_threads = 1;
};

/// Counters exposed for tests and ablation benches.  With sharding enabled
/// these are exact totals: every hit/miss/eviction/writeback/prefetch is
/// counted under its shard's lock and summed on stats().
struct PoolStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t writebacks = 0;
  std::uint64_t prefetches = 0;  ///< pages loaded by prefetch (not in misses)
  // Vectored-transfer accounting: how many backing calls the coalesced
  // paths issued and how many pages rode them, so batching ratios
  // (pages / call) are observable from stats instead of only from bench
  // counters.  flush_write_* covers every flush_file/flush_all backing
  // call (all runs go out as writev, single-page runs as a one-part
  // gather); gather_read_* covers prefetch_range readv gathers.  Eviction
  // write-backs are never coalesced and count only in `writebacks`.
  std::uint64_t flush_write_calls = 0;
  std::uint64_t flush_write_pages = 0;
  std::uint64_t gather_read_calls = 0;
  std::uint64_t gather_read_pages = 0;
};

/// Key of a cached page and its hash.  The hash feeds both the per-shard
/// page tables and shard selection, so it must mix *both* fields into the
/// low bits: the previous `(file << 48) ^ page_no` scheme degenerated under
/// modulo — page N of every file shared a bucket and a shard.  This is a
/// SplitMix64-style finalizer over both fields.
struct PageKey {
  FileId file;
  std::uint64_t page_no;
  bool operator==(const PageKey&) const = default;
};
struct PageKeyHash {
  static constexpr std::uint64_t mix(std::uint64_t z) {
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  std::size_t operator()(const PageKey& k) const {
    return static_cast<std::size_t>(
        mix(k.page_no + 0x9e3779b97f4a7c15ULL * (k.file + 1)));
  }
};

/// Page-granular LRU cache over a BackingStore.
///
/// This is the component responsible for every first-touch effect in the
/// paper: cold pages pay a backing-store access ("a page fault occurs,
/// resulting in the corresponding page being fetched from the disk into the
/// buffers"), warm pages are served from memory, and dirty pages are written
/// back on eviction or flush — which is why closing a file costs more than
/// opening it (Tables 1-4).
///
/// Concurrency structure: the pool is split into `config.shards` lock
/// stripes, each owning its mutex, page table, LRU list and stats.  A
/// pin/prefetch takes only its shard's mutex, and all backing-store I/O —
/// miss loads and eviction write-backs — happens *outside* that mutex, with
/// the frame held by a per-frame "io busy" latch: a second thread faulting
/// the same page waits on the shard's condition variable instead of
/// repeating the load, while unrelated pages (same shard or not) proceed.
/// Warm hits on different shards never contend.
///
/// Frames themselves are pooled globally (one free list), not split
/// statically across shards: a shard borrows a frame on demand and only
/// evicts — locally first, then from sibling shards — once all
/// capacity_pages frames are in use.  This keeps the capacity guarantee
/// exact (a working set of capacity_pages stays fully resident regardless
/// of how its pages hash) and means "all frames pinned" can only happen
/// when every frame in the pool is truly pinned.
///
/// Both bulk transfer directions are coalesced: flush merges adjacent dirty
/// pages into vectored writev gathers, and prefetch_range merges adjacent
/// cold pages into vectored readv scatters — one backing access per run
/// instead of one per page.  With an AsyncBackingStore attached, every bulk
/// transfer rides the submission/completion interface (a flush or prefetch
/// window is ONE submitted batch — on io_uring, one submit syscall), and
/// with config.async_prefetch readahead gathers are submitted inline and
/// published by a completion reaper so they overlap the caller's compute.
///
/// Pinned pages are never evicted; data access through a PageGuard is
/// lock-free and safe provided no two threads write the same page
/// concurrently (the benchmarks never do — POST creates uniquely-named
/// files, as in the paper).  Mutating a page's bytes while a flush or
/// eviction is writing that page back counts as such a conflict: the
/// write-back may persist a torn snapshot, though the page stays dirty
/// and the next flush writes the final bytes.
class BufferPool {
 public:
  /// `async` (optional, not owned, must outlive the pool) routes every bulk
  /// backing transfer — miss loads, eviction write-backs, coalesced flush
  /// runs and prefetch gathers — through the submission/completion
  /// interface instead of the sync BackingStore calls.  When it is null and
  /// config.async_prefetch is on, the pool builds its own
  /// ThreadPoolAsyncStore over `store` (config.prefetch_threads workers);
  /// when both are absent the pool stays fully synchronous.
  BufferPool(BackingStore& store, BufferPoolConfig config = {},
             AsyncBackingStore* async = nullptr);

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;
  ~BufferPool();

  /// RAII pin on a cached page.  While alive the frame cannot be evicted.
  class PageGuard {
   public:
    PageGuard() = default;
    PageGuard(BufferPool* pool, std::size_t shard, std::size_t frame);
    PageGuard(PageGuard&& other) noexcept;
    PageGuard& operator=(PageGuard&& other) noexcept;
    PageGuard(const PageGuard&) = delete;
    PageGuard& operator=(const PageGuard&) = delete;
    ~PageGuard();

    /// Whole page bytes (page_size long, zero-filled past EOF).
    [[nodiscard]] std::span<std::byte> data() const;

    /// Bytes of the page that hold real file content.
    [[nodiscard]] std::size_t valid_bytes() const;

    /// Marks the page dirty and extends its valid extent to `up_to` bytes.
    void mark_dirty(std::size_t up_to);

    [[nodiscard]] bool empty() const { return pool_ == nullptr; }

   private:
    BufferPool* pool_ = nullptr;
    std::size_t shard_ = 0;
    std::size_t frame_ = 0;
  };

  /// Pins page `page_no` of `file`, loading it on a miss.
  PageGuard pin(FileId file, std::uint64_t page_no);

  /// Pins page `page_no` of `file` only if it is resident and not being
  /// loaded or written back; otherwise returns an empty guard, loading and
  /// counting nothing.  The warm half of a pin: callers that batch their
  /// cold loads (ManagedFile, through prefetch_range) try this first.
  PageGuard pin_resident(FileId file, std::uint64_t page_no);

  /// Loads a page into the cache without pinning it, if absent.
  /// Returns true if the page was actually loaded (i.e. it was cold).
  bool prefetch(FileId file, std::uint64_t page_no);

  /// Prefetches `count` consecutive pages starting at `first_page`;
  /// returns how many were cold and actually loaded.  The window is clamped
  /// to end-of-file (pages wholly past EOF are never faulted in), cold
  /// pages are claimed up front across shards with io_busy latches, and
  /// each contiguous cold run is loaded by a single vectored
  /// BackingStore::readv issued outside any lock (runs are capped at
  /// config.coalesce_pages).  Under frame pressure the tail of the window
  /// is dropped rather than waited for — prefetch is a hint.
  std::size_t prefetch_range(FileId file, std::uint64_t first_page,
                             std::size_t count);

  /// Like prefetch_range but, when config.async_prefetch is on, claims the
  /// cold frames inline, submits their gather batch to the async store and
  /// returns 0 immediately — the completion reaper publishes the pages when
  /// the completions land (the hint is dropped if the in-flight gather
  /// backlog is saturated, and claim failures are swallowed: prefetch is a
  /// hint).  Falls back to the synchronous path when async prefetch is off.
  std::size_t prefetch_range_async(FileId file, std::uint64_t first_page,
                                   std::size_t count);

  /// Blocks until every async prefetch queued or in flight *at the time of
  /// the call* has completed (no-op when async_prefetch is off).  Snapshot
  /// semantics keep the wait bounded: hints other threads enqueue after
  /// entry are not chased.  flush_file/flush_all/discard_file call this on
  /// entry so their view of residency is quiescent.
  void drain_prefetches();

  /// True if the page is resident or being loaded (test/diagnostic helper).
  [[nodiscard]] bool contains(FileId file, std::uint64_t page_no) const;

  /// Writes back all dirty pages of `file`, coalescing adjacent pages into
  /// vectored backing-store writes.
  void flush_file(FileId file);

  /// Writes back every dirty page (coalesced).
  void flush_all();

  /// Drops all pages of `file` without write-back (used after remove).
  void discard_file(FileId file);

  /// Best-effort cache drop: evicts every resident page that is clean and
  /// unreferenced (no pins, no flush holds, no in-flight I/O).  Unlike
  /// discard_file it never throws on a pinned page — pages in active use
  /// simply stay resident — so it is safe to call while other threads are
  /// serving requests (ManagedFileSystem::drop_caches / make_cold racing
  /// live traffic).  Flush first for a fully cold cache.  Returns the
  /// number of pages dropped.
  std::size_t evict_clean();

  /// Logical size of the file as seen through the cache: the backing
  /// store's size extended by any dirty page not yet written back.
  [[nodiscard]] std::uint64_t logical_file_size(FileId file) const;

  /// Exhaustively checks the pool's internal invariants, throwing
  /// util::IoError with a description of the first violation found:
  /// frame accounting (every frame is free xor resident in exactly one
  /// shard's page table), LRU integrity (links consistent, every resident
  /// frame reachable), no leaked io_busy latches or flush_pins, per-frame
  /// sanity (valid_bytes <= page_size, buffers sized), and stats
  /// consistency.  Requires quiescence: no other thread may be using the
  /// pool, and callers of async prefetch should drain_prefetches() first
  /// so no background gather is mid-flight.  With `expect_unpinned` (the
  /// default) any surviving
  /// PageGuard pin is reported too — pass false while guards are live.
  /// This is the stress harness's post-run oracle; it is cheap enough to
  /// call after every test.
  void debug_validate(bool expect_unpinned = true) const;

  [[nodiscard]] PoolStats stats() const;
  [[nodiscard]] std::size_t page_size() const { return config_.page_size; }
  [[nodiscard]] std::size_t capacity_pages() const {
    return config_.capacity_pages;
  }
  [[nodiscard]] std::size_t coalesce_pages() const {
    return config_.coalesce_pages;
  }
  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }
  [[nodiscard]] std::size_t resident_pages() const;
  [[nodiscard]] BackingStore& store() { return store_; }

  /// The submission/completion store the pool's bulk transfers ride, or
  /// null when the pool runs fully synchronously.  Exposed so owners can
  /// bind_stats() it into their IoStats.
  [[nodiscard]] AsyncBackingStore* async_store() { return async_; }

 private:
  static constexpr std::size_t kNoFrame = SIZE_MAX;

  struct Frame {
    FileId file = kInvalidFile;
    std::uint64_t page_no = 0;
    std::vector<std::byte> data;
    std::size_t valid_bytes = 0;
    std::uint32_t pins = 0;
    /// Transient holds taken by flush while its coalesced write runs
    /// outside the lock.  Kept separate from `pins` so eviction can tell
    /// "caller holds a PageGuard" (throw when no frame is free) from
    /// "flush is briefly using this frame" (wait, it will be released).
    std::uint32_t flush_pins = 0;
    bool dirty = false;
    bool in_use = false;
    /// Set while a miss load or eviction write-back runs outside the shard
    /// lock; such frames are skipped by eviction and waited on by faulters.
    bool io_busy = false;
    /// Refines io_busy: set only while an eviction *write-back* is in
    /// flight.  Flush waits on this (a failed write-back re-dirties the
    /// page, which flush must then pick up) but not on plain io_busy, so
    /// a stream of clean demand loads cannot stall a flush.
    bool io_write = false;
    // Intrusive LRU links (indices into the shard's frame vector): no
    // allocator traffic on touch, unlike the former std::list.
    std::size_t lru_prev = kNoFrame;
    std::size_t lru_next = kNoFrame;
  };

  /// One lock stripe: page table, LRU and stats for the pages that hash
  /// here.  Frames are drawn from the pool-wide free list on demand.
  struct Shard {
    mutable std::mutex mutex;
    std::condition_variable io_cv;  ///< signalled when io_busy clears
    std::size_t lru_head = kNoFrame;  ///< most recently used
    std::size_t lru_tail = kNoFrame;  ///< least recently used
    std::unordered_map<PageKey, std::size_t, PageKeyHash> page_table;
    PoolStats stats;
  };

  /// A dirty page captured for flush: pinned so it cannot be evicted while
  /// the (lock-free) coalesced write runs.
  struct FlushEntry {
    FileId file;
    std::uint64_t page_no;
    std::size_t shard;
    std::size_t frame;
    std::size_t valid_bytes;
  };

  /// A cold page claimed for prefetch: its frame sits in the page table
  /// io_busy-latched while the coalesced gather read runs outside the lock.
  struct PrefetchTarget {
    std::uint64_t page_no;
    std::size_t shard;
    std::size_t frame;
  };

  /// One contiguous run of claimed prefetch targets, expressed as a span
  /// [first, first + count) into the claim vector — the unit that becomes
  /// one vectored gather AsyncOp (user_data = run index).
  struct GatherRun {
    std::size_t first;
    std::size_t count;
  };

  /// A submitted-but-unharvested async readahead gather.  The frames in
  /// `targets` sit io_busy-latched until the reaper publishes or aborts
  /// them.  `seq` orders gathers so a drain can wait for exactly the
  /// backlog present at its entry (snapshot semantics) instead of chasing
  /// a queue other threads keep refilling.
  struct PendingGather {
    FileId file;
    AsyncTicket ticket;
    std::vector<PrefetchTarget> targets;
    std::vector<GatherRun> runs;
    std::uint64_t seq;
  };

  [[nodiscard]] std::size_t shard_of(const PageKey& key) const;

  // Shard-local helpers; all assume the shard's mutex is held by `lk` /
  // the caller unless stated otherwise.
  std::size_t find_or_load(Shard& sh, std::unique_lock<std::mutex>& lk,
                           FileId file, std::uint64_t page_no,
                           bool count_as_prefetch, bool pin_result);
  void install_loading_frame(Shard& sh, FileId file, std::uint64_t page_no,
                             std::size_t idx, std::uint32_t pins);
  std::size_t acquire_frame(Shard& self, std::unique_lock<std::mutex>& lk);
  std::size_t try_acquire_frame(Shard& self, std::unique_lock<std::mutex>& lk,
                                bool& transient_holds);
  std::size_t try_evict_from(Shard& sh, std::unique_lock<std::mutex>& lk,
                             bool& transient_holds);
  void abort_prefetch_frames(FileId file,
                             std::span<const PrefetchTarget> targets);
  void prefetch_reaper();

  // Single-op backing transfers (miss loads, eviction write-backs): ride
  // the async store as one-op batches when present, else the sync calls.
  std::size_t backing_read(FileId file, std::uint64_t offset,
                           std::span<std::byte> out);
  void backing_write(FileId file, std::uint64_t offset,
                     std::span<const std::byte> data);

  /// Phase 1 of a prefetch window: clamps to EOF and claims every cold
  /// frame io_busy-latched, with buffers sized.  Unwinds and rethrows on a
  /// claim failure.
  [[nodiscard]] std::vector<PrefetchTarget> claim_prefetch_targets(
      FileId file, std::uint64_t first_page, std::size_t count);
  /// Splits claimed targets into contiguous runs of at most coalesce_pages.
  [[nodiscard]] std::vector<GatherRun> build_gather_runs(
      std::span<const PrefetchTarget> targets) const;
  /// One readv AsyncOp per run (user_data = run index), one submit call.
  AsyncTicket submit_gather(FileId file,
                            std::span<const PrefetchTarget> targets,
                            std::span<const GatherRun> runs);
  /// Publishes / aborts runs from their harvested completions; returns the
  /// number of pages published.  Stores the first error seen in `error`
  /// when non-null, else swallows (reaper hint semantics).
  std::size_t complete_gather(FileId file,
                              std::span<const PrefetchTarget> targets,
                              std::span<const GatherRun> runs,
                              std::vector<AsyncCompletion>& done,
                              std::exception_ptr* error);
  /// Publishes one run's frames: valid extents from `got`, stale tails
  /// zeroed, io_busy latches released, gather stats credited.
  void publish_gather_run(std::span<const PrefetchTarget> targets,
                          const GatherRun& run, std::size_t got);
  void release_frame(std::size_t idx);
  void lru_push_front(Shard& sh, std::size_t idx);
  void lru_remove(Shard& sh, std::size_t idx);
  void lru_touch(Shard& sh, std::size_t idx);
  void unpin(std::size_t shard, std::size_t frame);

  void collect_dirty(Shard& sh, std::size_t shard_idx, FileId file,
                     bool match_all, std::vector<FlushEntry>& out);
  void write_back_coalesced(std::vector<FlushEntry>& entries);

  BackingStore& store_;
  BufferPoolConfig config_;
  /// Completion-driven transfer path: external (not owned), the pool's own
  /// ThreadPoolAsyncStore, or null for a fully synchronous pool.
  AsyncBackingStore* async_ = nullptr;
  std::unique_ptr<ThreadPoolAsyncStore> owned_async_;
  std::vector<Shard> shards_;
  std::vector<Frame> frames_;  ///< all capacity_pages frames, shard-agnostic
  std::vector<std::size_t> free_frames_;
  mutable std::mutex free_mutex_;  ///< mutable: debug_validate() is const
  /// Furthest byte ever dirtied per file; only grows, erased on discard.
  std::unordered_map<FileId, std::uint64_t> dirty_extent_;
  mutable std::mutex extent_mutex_;

  // Async readahead state (empty / idle unless config.async_prefetch).
  // Submitted gathers carry FIFO sequence numbers: `prefetch_enqueue_seq_`
  // is the next to assign, seqs below `prefetch_popped_seq_` have left the
  // queue, and `prefetch_inflight_seqs_` holds the popped-but-unharvested
  // ones the reaper is currently waiting on.
  std::thread prefetch_reaper_thread_;
  std::deque<PendingGather> pending_gathers_;
  std::mutex prefetch_mutex_;
  std::condition_variable prefetch_work_cv_;  ///< the reaper waits for gathers
  std::condition_variable prefetch_done_cv_;  ///< drainers wait on progress
  std::uint64_t prefetch_enqueue_seq_ = 0;
  std::uint64_t prefetch_popped_seq_ = 0;
  std::vector<std::uint64_t> prefetch_inflight_seqs_;
  bool prefetch_stop_ = false;

  friend class PageGuard;
};

}  // namespace clio::io
