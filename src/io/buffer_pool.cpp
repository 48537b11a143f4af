#include "io/buffer_pool.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <exception>
#include <memory>
#include <utility>

#include "util/error.hpp"

namespace clio::io {

using util::check;
using util::IoError;

namespace {

std::size_t auto_shards(std::size_t capacity_pages) {
  return std::clamp<std::size_t>(capacity_pages / 256, 1, 16);
}

/// Async readahead hints beyond this many in-flight gathers are dropped,
/// not queued: a saturated backlog means I/O is already behind the reader.
constexpr std::size_t kMaxQueuedPrefetches = 1024;

}  // namespace

BufferPool::BufferPool(BackingStore& store, BufferPoolConfig config,
                       AsyncBackingStore* async)
    : store_(store), config_(config), async_(async) {
  check<util::ConfigError>(config_.page_size >= 64,
                           "BufferPool: page_size must be >= 64");
  check<util::ConfigError>(config_.capacity_pages >= 1,
                           "BufferPool: capacity must be >= 1 page");
  check<util::ConfigError>(config_.coalesce_pages >= 1,
                           "BufferPool: coalesce_pages must be >= 1");
  if (config_.shards == 0) config_.shards = auto_shards(config_.capacity_pages);
  check<util::ConfigError>(config_.shards <= config_.capacity_pages,
                           "BufferPool: more shards than capacity pages");
  shards_ = std::vector<Shard>(config_.shards);
  frames_.resize(config_.capacity_pages);
  free_frames_.reserve(config_.capacity_pages);
  for (std::size_t i = config_.capacity_pages; i > 0; --i) {
    free_frames_.push_back(i - 1);
  }
  if (config_.async_prefetch) {
    check<util::ConfigError>(config_.prefetch_threads >= 1,
                             "BufferPool: async_prefetch needs >= 1 thread");
    if (async_ == nullptr) {
      owned_async_ = std::make_unique<ThreadPoolAsyncStore>(
          store_, config_.prefetch_threads);
      async_ = owned_async_.get();
    }
    // One completion reaper: gathers are submitted inline by the hinting
    // thread, so the only background work left is harvesting completions
    // and publishing frames.
    prefetch_reaper_thread_ = std::thread([this] { prefetch_reaper(); });
  }
}

BufferPool::~BufferPool() {
  if (prefetch_reaper_thread_.joinable()) {
    // Quiesce the reaper first.  Unlike the old request queue, every entry
    // in the backlog is *already submitted* I/O whose completions must be
    // harvested and whose frames must be published or unwound, so the
    // reaper drains the whole queue before exiting.  After the join no
    // thread touches frames_ but ours.
    {
      std::lock_guard<std::mutex> lock(prefetch_mutex_);
      prefetch_stop_ = true;
    }
    prefetch_work_cv_.notify_all();
    prefetch_reaper_thread_.join();
  }
  // Best effort: persist dirty pages.  Failures are swallowed because a
  // destructor must not throw; callers who care flush explicitly.
  try {
    flush_all();
  } catch (...) {
  }
}

// ------------------------------------------------------ backing transfers ----

std::size_t BufferPool::backing_read(FileId file, std::uint64_t offset,
                                     std::span<std::byte> out) {
  if (async_ == nullptr) return store_.read(file, offset, out);
  std::vector<AsyncOp> batch;
  batch.push_back(AsyncOp::make_read(file, offset, out));
  const std::vector<AsyncCompletion> done =
      async_->submit_and_wait(std::move(batch));
  check<IoError>(done.size() == 1, "BufferPool: lost a read completion");
  done.front().rethrow();
  return done.front().bytes;
}

void BufferPool::backing_write(FileId file, std::uint64_t offset,
                               std::span<const std::byte> data) {
  if (async_ == nullptr) {
    store_.write(file, offset, data);
    return;
  }
  std::vector<AsyncOp> batch;
  batch.push_back(AsyncOp::make_write(file, offset, data));
  const std::vector<AsyncCompletion> done =
      async_->submit_and_wait(std::move(batch));
  check<IoError>(done.size() == 1, "BufferPool: lost a write completion");
  done.front().rethrow();
}

std::size_t BufferPool::shard_of(const PageKey& key) const {
  return PageKeyHash{}(key) % shards_.size();
}

// ------------------------------------------------------------- guards ----

BufferPool::PageGuard::PageGuard(BufferPool* pool, std::size_t shard,
                                 std::size_t frame)
    : pool_(pool), shard_(shard), frame_(frame) {}

BufferPool::PageGuard::PageGuard(PageGuard&& other) noexcept
    : pool_(other.pool_), shard_(other.shard_), frame_(other.frame_) {
  other.pool_ = nullptr;
}

BufferPool::PageGuard& BufferPool::PageGuard::operator=(
    PageGuard&& other) noexcept {
  if (this != &other) {
    if (pool_ != nullptr) pool_->unpin(shard_, frame_);
    pool_ = other.pool_;
    shard_ = other.shard_;
    frame_ = other.frame_;
    other.pool_ = nullptr;
  }
  return *this;
}

BufferPool::PageGuard::~PageGuard() {
  if (pool_ != nullptr) pool_->unpin(shard_, frame_);
}

std::span<std::byte> BufferPool::PageGuard::data() const {
  check<IoError>(pool_ != nullptr, "PageGuard: empty guard");
  return pool_->frames_[frame_].data;
}

std::size_t BufferPool::PageGuard::valid_bytes() const {
  check<IoError>(pool_ != nullptr, "PageGuard: empty guard");
  return pool_->frames_[frame_].valid_bytes;
}

void BufferPool::PageGuard::mark_dirty(std::size_t up_to) {
  check<IoError>(pool_ != nullptr, "PageGuard: empty guard");
  Shard& sh = pool_->shards_[shard_];
  // The extent lock is held ACROSS the dirty-bit publication: flush_file's
  // never-dirtied fast path reads dirty_extent_ alone, so any observer of
  // f.dirty == true must already be able to see this file's extent entry.
  // (Publishing the bit first and the entry second let the fast path skip
  // a just-dirtied page.)  Lock order extent -> shard is safe: no path
  // acquires extent_mutex_ while holding a shard mutex.
  std::lock_guard<std::mutex> extent_lock(pool_->extent_mutex_);
  std::uint64_t new_extent = 0;
  FileId file = kInvalidFile;
  {
    // Frame fields are read under the shard lock: an unlocked read of
    // data.size() here raced with load_frame in the pre-sharding pool.
    std::lock_guard<std::mutex> lock(sh.mutex);
    Frame& f = pool_->frames_[frame_];
    check<IoError>(up_to <= f.data.size(), "PageGuard: dirty extent > page");
    f.dirty = true;
    f.valid_bytes = std::max(f.valid_bytes, up_to);
    file = f.file;
    new_extent = f.page_no * pool_->config_.page_size + f.valid_bytes;
  }
  auto& extent = pool_->dirty_extent_[file];
  extent = std::max(extent, new_extent);
}

// ---------------------------------------------------------- LRU intrusive ----

void BufferPool::lru_push_front(Shard& sh, std::size_t idx) {
  Frame& f = frames_[idx];
  f.lru_prev = kNoFrame;
  f.lru_next = sh.lru_head;
  if (sh.lru_head != kNoFrame) frames_[sh.lru_head].lru_prev = idx;
  sh.lru_head = idx;
  if (sh.lru_tail == kNoFrame) sh.lru_tail = idx;
}

void BufferPool::lru_remove(Shard& sh, std::size_t idx) {
  Frame& f = frames_[idx];
  if (f.lru_prev != kNoFrame) {
    frames_[f.lru_prev].lru_next = f.lru_next;
  } else {
    sh.lru_head = f.lru_next;
  }
  if (f.lru_next != kNoFrame) {
    frames_[f.lru_next].lru_prev = f.lru_prev;
  } else {
    sh.lru_tail = f.lru_prev;
  }
  f.lru_prev = kNoFrame;
  f.lru_next = kNoFrame;
}

void BufferPool::lru_touch(Shard& sh, std::size_t idx) {
  if (sh.lru_head == idx) return;
  lru_remove(sh, idx);
  lru_push_front(sh, idx);
}

// --------------------------------------------------------------- pool ----

BufferPool::PageGuard BufferPool::pin(FileId file, std::uint64_t page_no) {
  const std::size_t s = shard_of(PageKey{file, page_no});
  Shard& sh = shards_[s];
  std::unique_lock<std::mutex> lk(sh.mutex);
  const std::size_t idx = find_or_load(sh, lk, file, page_no,
                                       /*count_as_prefetch=*/false,
                                       /*pin_result=*/true);
  return PageGuard(this, s, idx);
}

BufferPool::PageGuard BufferPool::pin_resident(FileId file,
                                               std::uint64_t page_no) {
  const PageKey key{file, page_no};
  const std::size_t s = shard_of(key);
  Shard& sh = shards_[s];
  std::lock_guard<std::mutex> lock(sh.mutex);
  const auto it = sh.page_table.find(key);
  if (it == sh.page_table.end() || frames_[it->second].io_busy) return {};
  sh.stats.hits++;
  frames_[it->second].pins++;
  lru_touch(sh, it->second);
  return PageGuard(this, s, it->second);
}

bool BufferPool::prefetch(FileId file, std::uint64_t page_no) {
  const PageKey key{file, page_no};
  Shard& sh = shards_[shard_of(key)];
  std::unique_lock<std::mutex> lk(sh.mutex);
  // Resident or already being loaded by someone else: nothing to do.
  if (sh.page_table.contains(key)) return false;
  find_or_load(sh, lk, file, page_no, /*count_as_prefetch=*/true,
               /*pin_result=*/false);
  return true;
}

/// Phase 1 of every prefetch window: clamp to end-of-file, then claim a
/// frame for every cold page, entering it into its shard's page table
/// io_busy-latched — a concurrent faulter of the same page waits on the
/// shard CV instead of duplicating the read.  Resident and in-flight pages
/// are skipped (they split the gather runs); under frame pressure the rest
/// of the window is dropped, never waited for: prefetch is a hint and must
/// not stall on pinned frames.  Frame buffers are sized here so the gather
/// phase cannot hit bad_alloc mid-publication.  On error every claimed
/// frame is unwound before rethrowing (a demand pin would otherwise hang
/// on the leaked latch).
std::vector<BufferPool::PrefetchTarget> BufferPool::claim_prefetch_targets(
    FileId file, std::uint64_t first_page, std::size_t count) {
  std::vector<PrefetchTarget> targets;
  // Clamp the window to end-of-file: faulting zero-filled pages past EOF
  // into the pool wastes frames and pollutes the LRU.  A page past the
  // store's size that holds unflushed dirty data is necessarily resident,
  // so it is skipped below anyway.
  const std::uint64_t file_size = store_.size(file);
  if (file_size == 0) return targets;
  const std::uint64_t last_page = (file_size - 1) / config_.page_size;
  if (first_page > last_page) return targets;
  count = static_cast<std::size_t>(
      std::min<std::uint64_t>(count, last_page - first_page + 1));
  targets.reserve(count);
  try {
    for (std::size_t i = 0; i < count; ++i) {
      const std::uint64_t page_no = first_page + i;
      const PageKey key{file, page_no};
      const std::size_t s = shard_of(key);
      Shard& sh = shards_[s];
      std::unique_lock<std::mutex> lk(sh.mutex);
      if (sh.page_table.contains(key)) continue;
      bool transient_holds = false;
      const std::size_t idx = try_acquire_frame(sh, lk, transient_holds);
      if (idx == kNoFrame) break;
      if (sh.page_table.contains(key)) {
        // Lost a race while try_acquire_frame released the lock.
        release_frame(idx);
        continue;
      }
      // Tracked before the buffer is sized: if the resize throws, the
      // unwind below must find this latched frame.
      install_loading_frame(sh, file, page_no, idx, /*pins=*/0);
      Frame& f = frames_[idx];
      sh.stats.prefetches++;
      targets.push_back(PrefetchTarget{page_no, s, idx});
      if (f.data.size() != config_.page_size) {
        f.data.resize(config_.page_size);  // can throw bad_alloc
      }
    }
  } catch (...) {
    abort_prefetch_frames(file, targets);
    throw;
  }
  return targets;
}

std::vector<BufferPool::GatherRun> BufferPool::build_gather_runs(
    std::span<const PrefetchTarget> targets) const {
  std::vector<GatherRun> runs;
  for (std::size_t i = 0; i < targets.size();) {
    std::size_t j = i + 1;
    while (j < targets.size() && j - i < config_.coalesce_pages &&
           targets[j].page_no == targets[j - 1].page_no + 1) {
      j++;
    }
    runs.push_back(GatherRun{i, j - i});
    i = j;
  }
  return runs;
}

AsyncTicket BufferPool::submit_gather(FileId file,
                                      std::span<const PrefetchTarget> targets,
                                      std::span<const GatherRun> runs) {
  std::vector<AsyncOp> batch;
  batch.reserve(runs.size());
  for (std::size_t r = 0; r < runs.size(); ++r) {
    const GatherRun& run = runs[r];
    std::vector<std::span<std::byte>> parts;
    parts.reserve(run.count);
    for (std::size_t k = 0; k < run.count; ++k) {
      Frame& f = frames_[targets[run.first + k].frame];
      parts.emplace_back(f.data.data(), config_.page_size);
    }
    batch.push_back(
        AsyncOp::make_readv(file, targets[run.first].page_no * config_.page_size,
                            std::move(parts), /*user_data=*/r));
  }
  return async_->submit(std::move(batch));
}

void BufferPool::publish_gather_run(std::span<const PrefetchTarget> targets,
                                    const GatherRun& run, std::size_t got) {
  // Set each frame's valid extent, zero any stale tail of a reused frame,
  // then release the io_busy latch under the lock.
  for (std::size_t k = 0; k < run.count; ++k) {
    Frame& f = frames_[targets[run.first + k].frame];
    const std::size_t skip = k * config_.page_size;
    const std::size_t valid =
        got > skip ? std::min(config_.page_size, got - skip) : 0;
    if (valid < config_.page_size) {
      std::memset(f.data.data() + valid, 0, config_.page_size - valid);
    }
    Shard& sh = shards_[targets[run.first + k].shard];
    std::lock_guard<std::mutex> lock(sh.mutex);
    f.valid_bytes = valid;
    f.io_busy = false;
    if (k == 0) {
      // Credit the whole gather to the run's first shard; stats() sums.
      sh.stats.gather_read_calls++;
      sh.stats.gather_read_pages += run.count;
    }
    sh.io_cv.notify_all();
  }
}

std::size_t BufferPool::complete_gather(FileId file,
                                        std::span<const PrefetchTarget> targets,
                                        std::span<const GatherRun> runs,
                                        std::vector<AsyncCompletion>& done,
                                        std::exception_ptr* error) {
  std::size_t loaded = 0;
  std::vector<char> seen(runs.size(), 0);
  for (AsyncCompletion& c : done) {
    const GatherRun& run = runs[static_cast<std::size_t>(c.user_data)];
    seen[static_cast<std::size_t>(c.user_data)] = 1;
    if (c.ok()) {
      publish_gather_run(targets, run, c.bytes);
      loaded += run.count;
    } else {
      // A failed gather must leave no half-valid frame resident; runs that
      // completed cleanly stay — their data is complete.
      abort_prefetch_frames(file, targets.subspan(run.first, run.count));
      if (error != nullptr && *error == nullptr) *error = c.error;
    }
  }
  // A lost completion would be a backend contract violation, but latches
  // must never leak: unwind any run that was not reported at all.
  for (std::size_t r = 0; r < runs.size(); ++r) {
    if (seen[r] == 0) {
      abort_prefetch_frames(file,
                            targets.subspan(runs[r].first, runs[r].count));
    }
  }
  return loaded;
}

std::size_t BufferPool::prefetch_range(FileId file, std::uint64_t first_page,
                                       std::size_t count) {
  if (count == 0) return 0;
  const std::vector<PrefetchTarget> targets =
      claim_prefetch_targets(file, first_page, count);
  if (targets.empty()) return 0;

  // Phase 2: one vectored gather per contiguous run of claimed pages, all
  // I/O outside any lock (the io_busy latches own the frames).  Runs are
  // capped at coalesce_pages, mirroring the write-back side.
  const std::vector<GatherRun> runs = build_gather_runs(targets);
  std::size_t loaded = 0;
  std::exception_ptr error;
  if (async_ != nullptr) {
    // Completion-driven: the whole window is ONE submitted batch (one run =
    // one vectored AsyncOp), so on io_uring it costs one submit syscall.
    AsyncTicket ticket = 0;
    std::vector<AsyncCompletion> done;
    try {
      ticket = submit_gather(file, targets, runs);
      done = async_->wait(ticket);
    } catch (...) {
      // Submission/harvest failure: nothing was published yet, so every
      // claimed frame unwinds.
      abort_prefetch_frames(file, targets);
      throw;
    }
    loaded = complete_gather(file, targets, runs, done, &error);
  } else {
    std::vector<std::span<std::byte>> parts;
    for (std::size_t r = 0; r < runs.size(); ++r) {
      const GatherRun& run = runs[r];
      std::size_t got = 0;
      try {
        parts.clear();
        for (std::size_t k = 0; k < run.count; ++k) {
          Frame& f = frames_[targets[run.first + k].frame];
          parts.emplace_back(f.data.data(), config_.page_size);
        }
        got = store_.readv(file, targets[run.first].page_no * config_.page_size,
                           parts);
      } catch (...) {
        // Unwind this run and everything not yet issued: a failed gather
        // must leave no half-valid frame resident.  Runs already published
        // stay — their data is complete.
        error = std::current_exception();
        abort_prefetch_frames(
            file,
            std::span<const PrefetchTarget>(targets).subspan(run.first));
        break;
      }
      publish_gather_run(targets, run, got);
      loaded += run.count;
    }
  }
  if (error) std::rethrow_exception(error);
  return loaded;
}

/// Drops the claimed-but-unloaded frames of a failed prefetch: page-table
/// entries are erased and the frames returned to the free list, so faulters
/// waiting on them retry from a clean slate.  The prefetch counter is taken
/// back too — PoolStats counts pages actually loaded, and these were not.
void BufferPool::abort_prefetch_frames(
    FileId file, std::span<const PrefetchTarget> targets) {
  for (const PrefetchTarget& t : targets) {
    Shard& sh = shards_[t.shard];
    std::lock_guard<std::mutex> lock(sh.mutex);
    Frame& f = frames_[t.frame];
    sh.page_table.erase(PageKey{file, t.page_no});
    lru_remove(sh, t.frame);
    f.in_use = false;
    f.io_busy = false;
    sh.stats.prefetches--;
    release_frame(t.frame);
    sh.io_cv.notify_all();
  }
}

std::size_t BufferPool::prefetch_range_async(FileId file,
                                             std::uint64_t first_page,
                                             std::size_t count) {
  if (count == 0) return 0;
  if (!config_.async_prefetch) {
    return prefetch_range(file, first_page, count);
  }
  {
    std::lock_guard<std::mutex> lock(prefetch_mutex_);
    if (prefetch_stop_ || pending_gathers_.size() >= kMaxQueuedPrefetches) {
      return 0;  // drop the hint; I/O is already behind the reader
    }
  }
  // Claim + submit inline on the hinting thread — both are cheap (no data
  // transfer) — and let the reaper harvest the completions.  Everything
  // here is best-effort: claim or submission failures drop the hint, and
  // the demand fault reports real errors to the actual reader.
  PendingGather g;
  g.file = file;
  try {
    g.targets = claim_prefetch_targets(file, first_page, count);
  } catch (...) {
    return 0;  // claimed frames already unwound
  }
  if (g.targets.empty()) return 0;
  g.runs = build_gather_runs(g.targets);
  try {
    g.ticket = submit_gather(file, g.targets, g.runs);
  } catch (...) {
    abort_prefetch_frames(file, g.targets);
    return 0;
  }
  bool raced_shutdown = false;
  {
    std::lock_guard<std::mutex> lock(prefetch_mutex_);
    if (prefetch_stop_) {
      // Shutdown raced the submission; the reaper may already be past its
      // final drain, so harvest inline rather than leak the latches.
      raced_shutdown = true;
    } else {
      g.seq = prefetch_enqueue_seq_++;
      pending_gathers_.push_back(std::move(g));
    }
  }
  if (raced_shutdown) {
    std::vector<AsyncCompletion> done = async_->wait(g.ticket);
    complete_gather(g.file, g.targets, g.runs, done, nullptr);
    return 0;
  }
  prefetch_work_cv_.notify_one();
  return 0;
}

void BufferPool::drain_prefetches() {
  if (!config_.async_prefetch) return;
  std::unique_lock<std::mutex> lock(prefetch_mutex_);
  // Snapshot semantics: wait for the gathers that exist *now*, not for a
  // backlog other threads may keep refilling — otherwise a flush or close
  // could starve behind unrelated readers' readahead.  Pops are FIFO, so
  // "every seq below the snapshot has been popped and is no longer in
  // flight" is exactly "the backlog at entry has been published".
  const std::uint64_t upto = prefetch_enqueue_seq_;
  prefetch_done_cv_.wait(lock, [&] {
    for (const std::uint64_t seq : prefetch_inflight_seqs_) {
      if (seq < upto) return false;
    }
    return prefetch_popped_seq_ >= upto;
  });
}

void BufferPool::prefetch_reaper() {
  std::unique_lock<std::mutex> lock(prefetch_mutex_);
  for (;;) {
    prefetch_work_cv_.wait(lock, [this] {
      return prefetch_stop_ || !pending_gathers_.empty();
    });
    // On stop the whole backlog still drains: every queued entry is
    // *submitted* I/O whose completions must be harvested and whose
    // io_busy latches must be released.
    if (pending_gathers_.empty()) return;
    PendingGather g = std::move(pending_gathers_.front());
    pending_gathers_.pop_front();
    prefetch_popped_seq_ = g.seq + 1;
    prefetch_inflight_seqs_.push_back(g.seq);
    lock.unlock();
    try {
      std::vector<AsyncCompletion> done = async_->wait(g.ticket);
      complete_gather(g.file, g.targets, g.runs, done, /*error=*/nullptr);
    } catch (...) {
      // Harvest failure: nothing was published, so unwind every frame —
      // readahead is best-effort and the demand fault reports real errors.
      abort_prefetch_frames(g.file, g.targets);
    }
    lock.lock();
    prefetch_inflight_seqs_.erase(
        std::find(prefetch_inflight_seqs_.begin(),
                  prefetch_inflight_seqs_.end(), g.seq));
    prefetch_done_cv_.notify_all();
  }
}

bool BufferPool::contains(FileId file, std::uint64_t page_no) const {
  const PageKey key{file, page_no};
  const Shard& sh = shards_[shard_of(key)];
  std::lock_guard<std::mutex> lock(sh.mutex);
  return sh.page_table.contains(key);
}

std::size_t BufferPool::find_or_load(Shard& sh,
                                     std::unique_lock<std::mutex>& lk,
                                     FileId file, std::uint64_t page_no,
                                     bool count_as_prefetch,
                                     bool pin_result) {
  const PageKey key{file, page_no};
  for (;;) {
    if (auto it = sh.page_table.find(key); it != sh.page_table.end()) {
      Frame& f = frames_[it->second];
      if (f.io_busy) {
        // Another thread is faulting or writing back this very page: wait
        // for its I/O instead of issuing a conflicting backing access.
        sh.io_cv.wait(lk);
        continue;
      }
      if (!count_as_prefetch) sh.stats.hits++;
      if (pin_result) f.pins++;
      lru_touch(sh, it->second);
      return it->second;
    }
    const std::size_t idx = acquire_frame(sh, lk);
    if (sh.page_table.contains(key)) {
      // Lost a race while acquire_frame released the lock: someone else
      // claimed this page.  Return the frame and retry.
      release_frame(idx);
      continue;
    }
    install_loading_frame(sh, file, page_no, idx, pin_result ? 1u : 0u);
    Frame& f = frames_[idx];
    if (count_as_prefetch) {
      sh.stats.prefetches++;
    } else {
      sh.stats.misses++;
    }
    // The actual disk read happens outside the shard lock; the io_busy
    // latch keeps the frame from being evicted or double-loaded.
    lk.unlock();
    std::exception_ptr error;
    std::size_t got = 0;
    try {
      if (f.data.size() != config_.page_size) {
        f.data.resize(config_.page_size);  // zero-filled on first allocation
      }
      // A page wholly past the store's end has no bytes to read: a page
      // holding unflushed data past EOF is dirty and therefore resident,
      // and every write-back of this page finished before its table entry
      // went away.  Zero-fill it without a backing call — every page of a
      // freshly written file comes through here.
      if (page_no * config_.page_size < store_.size(file)) {
        got = backing_read(file, page_no * config_.page_size, f.data);
      }
      if (got < config_.page_size) {
        // Only the stale tail needs zeroing; full-page loads skip the
        // page-sized memset the old code paid on every load.
        std::memset(f.data.data() + got, 0, config_.page_size - got);
      }
    } catch (...) {
      error = std::current_exception();
    }
    lk.lock();
    if (error) {
      sh.page_table.erase(key);
      lru_remove(sh, idx);
      f.in_use = false;
      f.io_busy = false;
      f.pins = 0;
      // Prefetches count pages actually loaded; a miss stays counted — the
      // demand fault did happen even though its load failed.
      if (count_as_prefetch) sh.stats.prefetches--;
      release_frame(idx);
      sh.io_cv.notify_all();
      std::rethrow_exception(error);
    }
    f.valid_bytes = got;
    f.io_busy = false;
    sh.io_cv.notify_all();
    return idx;
  }
}

/// Installs `idx` as the io_busy-latched frame for (file, page_no): resets
/// the frame's bookkeeping and enters it into `sh`'s page table and LRU.
/// Caller holds the shard lock, owns the load, and must either publish the
/// frame (valid_bytes + io_busy = false) or unwind it on failure.
void BufferPool::install_loading_frame(Shard& sh, FileId file,
                                       std::uint64_t page_no, std::size_t idx,
                                       std::uint32_t pins) {
  Frame& f = frames_[idx];
  f.file = file;
  f.page_no = page_no;
  f.valid_bytes = 0;
  f.pins = pins;
  f.dirty = false;
  f.in_use = true;
  f.io_busy = true;
  sh.page_table.emplace(PageKey{file, page_no}, idx);
  lru_push_front(sh, idx);
}

/// Returns an unused frame to the pool-wide free list.
void BufferPool::release_frame(std::size_t idx) {
  std::lock_guard<std::mutex> lock(free_mutex_);
  free_frames_.push_back(idx);
}

/// Tries to evict `sh`'s least recently used unpinned frame.  Returns the
/// detached frame index, or kNoFrame if nothing was evictable; sets
/// `transient_holds` if a frame was skipped only because of in-flight I/O
/// or a flush hold.  May release and reacquire `lk` for a dirty victim's
/// write-back.
std::size_t BufferPool::try_evict_from(Shard& sh,
                                       std::unique_lock<std::mutex>& lk,
                                       bool& transient_holds) {
  for (std::size_t idx = sh.lru_tail; idx != kNoFrame;
       idx = frames_[idx].lru_prev) {
    Frame& f = frames_[idx];
    if (f.pins > 0) continue;
    if (f.io_busy || f.flush_pins > 0) {
      // In-flight load or flush write: will be released shortly.
      transient_holds = true;
      continue;
    }
    if (f.dirty) {
      // Write the victim back before retiring its page-table entry: a
      // concurrent fault on the same page must find the io_busy entry
      // and wait, not race a fresh store read against this write.
      f.dirty = false;
      f.io_busy = true;
      f.io_write = true;
      lru_remove(sh, idx);
      const FileId file = f.file;
      const std::uint64_t offset = f.page_no * config_.page_size;
      const std::size_t n = f.valid_bytes;
      lk.unlock();
      std::exception_ptr error;
      try {
        backing_write(file, offset,
                      std::span<const std::byte>(f.data.data(), n));
      } catch (...) {
        error = std::current_exception();
      }
      lk.lock();
      f.io_busy = false;
      f.io_write = false;
      if (error) {
        // Failed write-back: keep the page resident and dirty so a later
        // flush or eviction can retry — its data must not be lost just
        // because this allocation failed.
        f.dirty = true;
        lru_push_front(sh, idx);
        sh.io_cv.notify_all();
        std::rethrow_exception(error);
      }
      sh.stats.writebacks++;
    } else {
      lru_remove(sh, idx);
    }
    sh.page_table.erase(PageKey{f.file, f.page_no});
    sh.stats.evictions++;
    f.in_use = false;
    sh.io_cv.notify_all();
    return idx;
  }
  return kNoFrame;
}

/// One allocation attempt, with `self`'s mutex held on entry and exit.
/// Order: pool-wide free list, then eviction from `self`, then eviction
/// from sibling shards (releasing `self`'s lock; at most one shard lock is
/// ever held, so shards cannot deadlock).  Returns kNoFrame when nothing
/// was obtainable right now; `transient_holds` is set if a frame was
/// skipped only because of in-flight I/O or a flush hold.
std::size_t BufferPool::try_acquire_frame(Shard& self,
                                          std::unique_lock<std::mutex>& lk,
                                          bool& transient_holds) {
  {
    std::lock_guard<std::mutex> lock(free_mutex_);
    if (!free_frames_.empty()) {
      const std::size_t idx = free_frames_.back();
      free_frames_.pop_back();
      return idx;
    }
  }
  const std::size_t local = try_evict_from(self, lk, transient_holds);
  if (local != kNoFrame) return local;
  if (shards_.size() > 1) {
    const std::size_t self_idx = static_cast<std::size_t>(&self - shards_.data());
    std::size_t stolen = kNoFrame;
    lk.unlock();
    for (std::size_t off = 1; off < shards_.size() && stolen == kNoFrame;
         ++off) {
      Shard& other = shards_[(self_idx + off) % shards_.size()];
      std::unique_lock<std::mutex> other_lk(other.mutex);
      stolen = try_evict_from(other, other_lk, transient_holds);
    }
    lk.lock();
    if (stolen != kNoFrame) return stolen;
  }
  return kNoFrame;
}

/// Hands the caller a frame, retrying until one is available.  Throws only
/// when every frame in the pool is durably pinned.
std::size_t BufferPool::acquire_frame(Shard& self,
                                      std::unique_lock<std::mutex>& lk) {
  for (;;) {
    bool transient_holds = false;
    const std::size_t idx = try_acquire_frame(self, lk, transient_holds);
    if (idx != kNoFrame) return idx;
    // Only durable PageGuard pins justify failing; transient holds by a
    // concurrent flush or loader resolve, so wait and rescan.  The wait is
    // bounded because the hold may live in a sibling shard whose progress
    // signals that shard's CV, not ours.
    if (!transient_holds) {
      throw IoError("BufferPool: all frames pinned, cannot allocate");
    }
    self.io_cv.wait_for(lk, std::chrono::milliseconds(1));
  }
}

void BufferPool::unpin(std::size_t shard, std::size_t frame) {
  Shard& sh = shards_[shard];
  std::lock_guard<std::mutex> lock(sh.mutex);
  Frame& f = frames_[frame];
  check<IoError>(f.pins > 0, "BufferPool: unpin of unpinned frame");
  f.pins--;
}

// ---------------------------------------------------------------- flush ----

void BufferPool::collect_dirty(Shard& sh, std::size_t shard_idx, FileId file,
                               bool match_all, std::vector<FlushEntry>& out) {
  std::unique_lock<std::mutex> lock(sh.mutex);
  // Wait out in-flight write-backs on matching pages before scanning.  A
  // dirty page mid-eviction (io_write) or mid-flush (flush_pins) is
  // invisible to the dirty scan below — both clear `dirty` before their
  // write runs — but if that write *fails* the page comes back dirty, and
  // a flush that already returned success would have silently skipped it:
  // a durability hole the fault-injection harness exposed (stress seed
  // 1014 for the eviction case; the flush_pins case is its concurrent-
  // flush twin).  Waiting until the in-flight write settles means every
  // failed write-back has re-dirtied its page before we scan, so flush
  // either persists the page or propagates an error — never neither.
  // Clean loads (io_busy without io_write) are irrelevant to durability
  // and are NOT waited on, so read storms cannot stall a flush.
  //
  // Deadlock-free: every flush collects shards in index order and only
  // holds flush_pins in shards it has finished collecting, so a flush
  // waiting here can only be waiting on a flush whose own wait (if any)
  // is in a strictly higher shard — wait chains cannot cycle.  Eviction
  // write-backs finish without taking further locks.
  for (;;) {
    bool busy = false;
    for (const auto& [key, idx] : sh.page_table) {
      if (!match_all && key.file != file) continue;
      const Frame& f = frames_[idx];
      if (f.io_write || f.flush_pins > 0) {
        busy = true;
        break;
      }
    }
    if (!busy) break;
    sh.io_cv.wait(lock);
  }
  for (std::size_t i = sh.lru_head; i != kNoFrame; i = frames_[i].lru_next) {
    Frame& f = frames_[i];
    if (!f.in_use || !f.dirty || f.io_busy) continue;
    if (!match_all && f.file != file) continue;
    // Clear dirty now and take a transient hold: the coalesced write below
    // runs without the shard lock, and the hold keeps the frame from being
    // evicted (a concurrent mark_dirty simply re-dirties the page).
    f.dirty = false;
    f.flush_pins++;
    out.push_back(FlushEntry{f.file, f.page_no, shard_idx, i, f.valid_bytes});
  }
}

void BufferPool::write_back_coalesced(std::vector<FlushEntry>& entries) {
  std::sort(entries.begin(), entries.end(),
            [](const FlushEntry& a, const FlushEntry& b) {
              return a.file != b.file ? a.file < b.file
                                      : a.page_no < b.page_no;
            });
  std::exception_ptr error;
  std::vector<bool> written(entries.size(), false);
  // Runs extend while pages are adjacent in the same file and every page
  // except the last covers the full page (no holes in the middle).
  // Single-page runs go through writev too (one-part gather): every flush
  // backing call is then the same op class, so the coalescing ratio
  // computed from vectored-op stats (PoolStats here, IoStats at the
  // managed level) covers the whole flush path, not just the multi-page
  // gathers.
  struct WriteRun {
    std::size_t first;
    std::size_t last;  ///< exclusive
  };
  std::vector<WriteRun> runs;
  for (std::size_t i = 0; i < entries.size();) {
    std::size_t j = i + 1;
    while (j < entries.size() && j - i < config_.coalesce_pages &&
           entries[j].file == entries[i].file &&
           entries[j].page_no == entries[j - 1].page_no + 1 &&
           entries[j - 1].valid_bytes == config_.page_size) {
      j++;
    }
    runs.push_back(WriteRun{i, j});
    i = j;
  }
  const auto credit_run = [&](const WriteRun& run) {
    for (std::size_t k = run.first; k < run.last; ++k) written[k] = true;
    // Credit the backing call to the run's first shard; stats() sums.
    Shard& sh = shards_[entries[run.first].shard];
    std::lock_guard<std::mutex> lock(sh.mutex);
    sh.stats.flush_write_calls++;
    sh.stats.flush_write_pages += run.last - run.first;
  };
  if (async_ != nullptr && !runs.empty()) {
    // Completion-driven flush: every run is one vectored AsyncOp and the
    // whole flush is ONE submitted batch (on io_uring, one submit syscall
    // for the entire dirty set).  All runs are attempted; pages whose run
    // failed are re-dirtied below and the first error propagates.
    try {
      std::vector<AsyncOp> batch;
      batch.reserve(runs.size());
      for (std::size_t r = 0; r < runs.size(); ++r) {
        const WriteRun& run = runs[r];
        std::vector<std::span<const std::byte>> parts;
        parts.reserve(run.last - run.first);
        for (std::size_t k = run.first; k < run.last; ++k) {
          const FlushEntry& e = entries[k];
          parts.emplace_back(frames_[e.frame].data.data(), e.valid_bytes);
        }
        batch.push_back(AsyncOp::make_writev(
            entries[run.first].file,
            entries[run.first].page_no * config_.page_size, std::move(parts),
            /*user_data=*/r));
      }
      std::vector<AsyncCompletion> done =
          async_->submit_and_wait(std::move(batch));
      for (const AsyncCompletion& c : done) {
        const WriteRun& run = runs[static_cast<std::size_t>(c.user_data)];
        if (c.ok()) {
          credit_run(run);
        } else if (!error) {
          error = c.error;
        }
      }
    } catch (...) {
      // Submission/harvest failure: nothing confirmed written; every page
      // re-dirties below.
      error = std::current_exception();
    }
  } else {
    std::vector<std::span<const std::byte>> parts;
    for (const WriteRun& run : runs) {
      if (error) break;
      try {
        parts.clear();
        for (std::size_t k = run.first; k < run.last; ++k) {
          const FlushEntry& e = entries[k];
          parts.emplace_back(frames_[e.frame].data.data(), e.valid_bytes);
        }
        store_.writev(entries[run.first].file,
                      entries[run.first].page_no * config_.page_size, parts);
        credit_run(run);
      } catch (...) {
        error = std::current_exception();
      }
    }
  }
  // Release the holds; credit write-backs that happened and re-dirty the
  // pages a failed write left behind, so a retried flush still sees them.
  for (std::size_t k = 0; k < entries.size(); ++k) {
    const FlushEntry& e = entries[k];
    Shard& sh = shards_[e.shard];
    std::lock_guard<std::mutex> lock(sh.mutex);
    Frame& f = frames_[e.frame];
    f.flush_pins--;
    if (written[k]) {
      sh.stats.writebacks++;
    } else {
      f.dirty = true;
    }
    sh.io_cv.notify_all();
  }
  if (error) std::rethrow_exception(error);
}

void BufferPool::flush_file(FileId file) {
  // Drain first even on the fast path below: ManagedFile::close relies on
  // "flush_file drains on entry" before it releases the backing fd, and a
  // read-only file can still have readahead in flight.  Free when async
  // prefetch is off (no workers), which is the serving hot path.
  drain_prefetches();
  {
    // Fast path: no page of this file was ever dirtied since the last
    // discard (mark_dirty is the only writer of dirty_extent_), so there
    // is nothing to write back and no failing in-flight write-back to
    // wait out.  Read-only streams close() through here on every request.
    std::lock_guard<std::mutex> lock(extent_mutex_);
    if (!dirty_extent_.contains(file)) return;
  }
  std::vector<FlushEntry> dirty;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    collect_dirty(shards_[s], s, file, /*match_all=*/false, dirty);
  }
  write_back_coalesced(dirty);
}

void BufferPool::flush_all() {
  drain_prefetches();
  std::vector<FlushEntry> dirty;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    collect_dirty(shards_[s], s, kInvalidFile, /*match_all=*/true, dirty);
  }
  write_back_coalesced(dirty);
}

// ---------------------------------------------------------------- misc ----

std::uint64_t BufferPool::logical_file_size(FileId file) const {
  const std::uint64_t store_size = store_.size(file);
  std::lock_guard<std::mutex> lock(extent_mutex_);
  const auto it = dirty_extent_.find(file);
  if (it == dirty_extent_.end()) return store_size;
  return std::max(store_size, it->second);
}

void BufferPool::discard_file(FileId file) {
  // Outstanding async readahead may still target this file; let it land
  // before dropping, so no worker re-faults pages mid-discard.
  drain_prefetches();
  {
    std::lock_guard<std::mutex> lock(extent_mutex_);
    dirty_extent_.erase(file);
  }
  for (Shard& sh : shards_) {
    std::unique_lock<std::mutex> lk(sh.mutex);
    // Wait out in-flight loads, eviction write-backs and flush writes of
    // this file so the drop is complete.  The page table — not the LRU —
    // is the authoritative index: a frame mid-eviction is detached from
    // the LRU but keeps its table entry until its write-back finishes.
    for (;;) {
      bool busy = false;
      for (const auto& [key, idx] : sh.page_table) {
        if (key.file != file) continue;
        const Frame& f = frames_[idx];
        if (f.io_busy || f.flush_pins > 0) {
          busy = true;
          break;
        }
      }
      if (!busy) break;
      sh.io_cv.wait(lk);
    }
    for (auto it = sh.page_table.begin(); it != sh.page_table.end();) {
      if (it->first.file != file) {
        ++it;
        continue;
      }
      const std::size_t idx = it->second;
      Frame& f = frames_[idx];
      check<IoError>(f.pins == 0, "BufferPool: discard of pinned page");
      f.in_use = false;
      f.dirty = false;
      lru_remove(sh, idx);
      release_frame(idx);
      it = sh.page_table.erase(it);
    }
  }
}

std::size_t BufferPool::evict_clean() {
  // Let queued readahead land first so its frames are evictable too.
  drain_prefetches();
  std::size_t dropped = 0;
  for (Shard& sh : shards_) {
    std::lock_guard<std::mutex> lock(sh.mutex);
    for (auto it = sh.page_table.begin(); it != sh.page_table.end();) {
      const std::size_t idx = it->second;
      Frame& f = frames_[idx];
      // Anything referenced, mid-I/O or dirty stays resident: this is a
      // cache hint, not a correctness operation.
      if (f.pins > 0 || f.flush_pins > 0 || f.io_busy || f.dirty) {
        ++it;
        continue;
      }
      f.in_use = false;
      lru_remove(sh, idx);
      release_frame(idx);
      it = sh.page_table.erase(it);
      sh.stats.evictions++;
      ++dropped;
    }
  }
  return dropped;
}

namespace {

void add_shard_stats(PoolStats& total, const PoolStats& s) {
  total.hits += s.hits;
  total.misses += s.misses;
  total.evictions += s.evictions;
  total.writebacks += s.writebacks;
  total.prefetches += s.prefetches;
  total.flush_write_calls += s.flush_write_calls;
  total.flush_write_pages += s.flush_write_pages;
  total.gather_read_calls += s.gather_read_calls;
  total.gather_read_pages += s.gather_read_pages;
}

}  // namespace

PoolStats BufferPool::stats() const {
  PoolStats total;
  for (const Shard& sh : shards_) {
    std::lock_guard<std::mutex> lock(sh.mutex);
    add_shard_stats(total, sh.stats);
  }
  return total;
}

void BufferPool::debug_validate(bool expect_unpinned) const {
  const auto fail = [](const std::string& what) {
    throw IoError("BufferPool::debug_validate: " + what);
  };
  // All shard locks (index order), then the free-list lock — the same
  // shard-before-free order every other path uses, so this cannot deadlock
  // against concurrent stragglers while it waits for quiescence.
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(shards_.size());
  for (const Shard& sh : shards_) locks.emplace_back(sh.mutex);
  std::lock_guard<std::mutex> free_lock(free_mutex_);

  std::vector<char> seen(frames_.size(), 0);  // reachable via some LRU list
  PoolStats total;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const Shard& sh = shards_[s];
    // Walk the LRU forward, checking link symmetry and per-frame state.
    std::size_t count = 0;
    std::size_t prev = kNoFrame;
    for (std::size_t idx = sh.lru_head; idx != kNoFrame;
         idx = frames_[idx].lru_next) {
      if (idx >= frames_.size()) fail("LRU link out of range");
      if (++count > frames_.size()) fail("LRU list contains a cycle");
      const Frame& f = frames_[idx];
      if (f.lru_prev != prev) fail("LRU back-link mismatch");
      if (!f.in_use) fail("LRU frame not in_use");
      if (seen[idx] != 0) fail("frame linked into two LRU lists");
      seen[idx] = 1;
      const PageKey key{f.file, f.page_no};
      if (shard_of(key) != s) fail("frame resident in the wrong shard");
      const auto it = sh.page_table.find(key);
      if (it == sh.page_table.end()) fail("LRU frame missing from page table");
      if (it->second != idx) fail("page table maps key to a different frame");
      if (f.io_busy) fail("leaked io_busy latch on a quiescent pool");
      if (f.io_write) fail("leaked io_write flag on a quiescent pool");
      if (f.flush_pins != 0) fail("leaked flush_pin on a quiescent pool");
      if (expect_unpinned && f.pins != 0) fail("leaked PageGuard pin");
      if (f.data.size() != config_.page_size) fail("frame buffer not sized");
      if (f.valid_bytes > config_.page_size) fail("valid_bytes > page_size");
      prev = idx;
    }
    if (prev != sh.lru_tail) fail("LRU tail does not terminate the list");
    // At quiescence no frame is detached mid-eviction, so the page table
    // and the LRU list must index exactly the same frames.
    if (count != sh.page_table.size()) {
      fail("page table entry not linked into the LRU");
    }
    add_shard_stats(total, sh.stats);
  }
  // Global frame accounting: every frame is either reachable through
  // exactly one LRU list (checked above) or parked on the free list.
  std::size_t resident = 0;
  for (std::size_t idx = 0; idx < frames_.size(); ++idx) {
    if (frames_[idx].in_use) {
      resident++;
      if (seen[idx] == 0) fail("in_use frame unreachable from any LRU");
    } else if (seen[idx] != 0) {
      fail("free frame linked into an LRU");
    }
  }
  std::vector<char> freed(frames_.size(), 0);
  for (const std::size_t idx : free_frames_) {
    if (idx >= frames_.size()) fail("free-list index out of range");
    if (frames_[idx].in_use) fail("in_use frame on the free list");
    if (freed[idx] != 0) fail("frame on the free list twice");
    freed[idx] = 1;
  }
  if (resident + free_frames_.size() != config_.capacity_pages) {
    fail("frames leaked: resident + free != capacity");
  }
  // Stats consistency.  Every resident or evicted page came from a
  // successful load, and every load was counted as a miss or a prefetch
  // (failed misses still count as misses, so this is an inequality).
  if (resident + total.evictions > total.misses + total.prefetches) {
    fail("stats: more residents+evictions than counted loads");
  }
  if (total.flush_write_pages > total.writebacks) {
    fail("stats: flush wrote more pages than writebacks counted");
  }
  if (total.gather_read_pages > total.prefetches) {
    fail("stats: gathers loaded more pages than prefetches counted");
  }
}

std::size_t BufferPool::resident_pages() const {
  std::size_t total = 0;
  for (const Shard& sh : shards_) {
    std::lock_guard<std::mutex> lock(sh.mutex);
    total += sh.page_table.size();
  }
  return total;
}

}  // namespace clio::io
