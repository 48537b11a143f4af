#include "io/managed_file.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

#include "io/store_decorator.hpp"
#include "util/error.hpp"
#include "util/stopwatch.hpp"

namespace clio::io {

using util::check;
using util::IoError;
using util::Stopwatch;

namespace {

/// Walks bytes [pos, pos + len) of `file` page by page, calling
/// `copy(guard, within, take, done)` with each page pinned: `within` is the
/// offset in the page, `take` the bytes of the page in range and `done` the
/// bytes walked before it.  A resident page is pinned directly.  At the
/// first page that is not, the next coalesce_pages() pages of the range are
/// handed to prefetch_range, so each cold run among them costs one gather
/// and their pins hit; the chunk also bounds the frames one call claims.
template <typename Copy>
void for_each_page(BufferPool& pool, FileId file, std::uint64_t pos,
                   std::size_t len, Copy&& copy) {
  const std::size_t page_size = pool.page_size();
  const std::uint64_t end_page = (pos + len + page_size - 1) / page_size;
  std::uint64_t chunk_end = 0;  // pages below were offered to the pool
  for (std::size_t done = 0; done < len;) {
    const std::uint64_t page = (pos + done) / page_size;
    BufferPool::PageGuard guard = pool.pin_resident(file, page);
    if (guard.empty()) {
      if (page >= chunk_end) {
        // The call's own pages load synchronously, async_prefetch or not:
        // the copy needs them now.  Pages past the store's end are
        // skipped by the pool and zero-filled by the pin.
        chunk_end = std::min<std::uint64_t>(end_page,
                                            page + pool.coalesce_pages());
        static_cast<void>(pool.prefetch_range(
            file, page, static_cast<std::size_t>(chunk_end - page)));
      }
      // A hit, unless the chunk dropped this page under frame pressure or
      // another thread evicted it since.
      guard = pool.pin(file, page);
    }
    const auto within = static_cast<std::size_t>((pos + done) % page_size);
    const std::size_t take = std::min(len - done, page_size - within);
    copy(std::move(guard), within, take, done);
    done += take;
  }
}

}  // namespace

ManagedFileSystem::ManagedFileSystem(std::unique_ptr<BackingStore> store,
                                     ManagedFsOptions options)
    : store_(std::move(store)),
      options_(options),
      stats_(options.keep_op_records),
      prefetcher_(options.prefetch) {
  check<util::ConfigError>(store_ != nullptr,
                           "ManagedFileSystem: null backing store");
  // One helper builds and binds the whole decorator chain: the pool talks
  // to a VectoredStatsStore (coalescing ratios land in the op table as
  // IoOp::kReadv / kWritev), and bind_chain walks every StoreDecorator the
  // caller stacked below (RetryingStore, FaultStore, ...) so their
  // resilience counters report into this filesystem's stats too.
  pool_store_ = std::make_unique<VectoredStatsStore>(*store_);
  StoreDecorator::bind_chain(*pool_store_, &stats_);
  pool_ = std::make_unique<BufferPool>(*pool_store_, pool_config());
  // The pool's submission/completion path (if any) reports its async
  // counters — submissions, completions, submit syscalls — here as well.
  if (AsyncBackingStore* async = pool_->async_store(); async != nullptr) {
    async->bind_stats(&stats_);
  }
}

ManagedFileSystem::~ManagedFileSystem() = default;

BufferPoolConfig ManagedFileSystem::pool_config() const {
  return BufferPoolConfig{.page_size = options_.page_size,
                          .capacity_pages = options_.pool_pages,
                          .shards = options_.pool_shards,
                          .async_prefetch = options_.async_prefetch,
                          .prefetch_threads = options_.prefetch_threads};
}

ManagedFile ManagedFileSystem::open(const std::string& name, OpenMode mode) {
  Stopwatch watch;
  const bool create = (mode == OpenMode::kCreate || mode == OpenMode::kTruncate);
  if (!create) {
    check<IoError>(store_->exists(name),
                   "ManagedFileSystem: no such file '" + name + "'");
  }
  const FileId id = store_->open(name, create);
  if (mode == OpenMode::kTruncate) {
    pool_->discard_file(id);
    store_->truncate(id, 0);
  }
  ManagedFile file(this, id, name);
  const double ms = watch.elapsed_ms();
  stats_.record(IoOp::kOpen, 0, ms);
  return file;
}

bool ManagedFileSystem::exists(const std::string& name) const {
  return store_->exists(name);
}

void ManagedFileSystem::remove(const std::string& name) {
  // Drop any cached pages first: the id may be re-bound to a new file of
  // the same name later, and stale pages must not leak into it.
  const FileId id = store_->lookup(name);
  if (id != kInvalidFile) pool_->discard_file(id);
  store_->remove(name);
}

void ManagedFileSystem::drop_caches() {
  // Flush, then evict in place.  The pool object must survive: replacing
  // it (the old implementation) frees frames that concurrent requests may
  // still hold PageGuards into — make_cold() races live traffic by design.
  pool_->flush_all();
  pool_->evict_clean();
  std::lock_guard<std::mutex> lock(prefetcher_mutex_);
  prefetcher_.reset();
}

// --------------------------------------------------------------- file ----

ManagedFile::ManagedFile(ManagedFileSystem* fs, FileId id, std::string name)
    : fs_(fs), id_(id), name_(std::move(name)) {}

ManagedFile::ManagedFile(ManagedFile&& other) noexcept
    : fs_(other.fs_),
      id_(other.id_),
      name_(std::move(other.name_)),
      position_(other.position_) {
  other.fs_ = nullptr;
  other.id_ = kInvalidFile;
}

ManagedFile& ManagedFile::operator=(ManagedFile&& other) noexcept {
  if (this != &other) {
    if (fs_ != nullptr) {
      try {
        close();
      } catch (...) {
      }
    }
    fs_ = other.fs_;
    id_ = other.id_;
    name_ = std::move(other.name_);
    position_ = other.position_;
    other.fs_ = nullptr;
    other.id_ = kInvalidFile;
  }
  return *this;
}

ManagedFile::~ManagedFile() {
  if (fs_ != nullptr) {
    try {
      close();
    } catch (...) {
      // Destructors must not throw; explicit close() reports errors.
    }
  }
}

std::uint64_t ManagedFile::size() const {
  check<IoError>(fs_ != nullptr, "ManagedFile: closed");
  return fs_->pool_->logical_file_size(id_);
}

void ManagedFile::run_prefetch(std::uint64_t pos, std::size_t len,
                               std::uint64_t file_size) {
  const std::size_t page_size = fs_->pool_->page_size();
  // A file that fits in one page has nothing ahead to fetch: skip the
  // shared prefetcher outright.  The serving hot path reads small objects
  // at a high rate, and the prefetcher sits behind a global mutex.
  if (file_size != kUnknownSize && file_size <= page_size) return;
  const std::uint64_t first = pos / page_size;
  const std::uint64_t last = (pos + len - 1) / page_size;
  PrefetchRange ahead;
  {
    std::lock_guard<std::mutex> lock(fs_->prefetcher_mutex_);
    ahead = fs_->prefetcher_.propose(
        id_, first, static_cast<std::size_t>(last - first + 1));
  }
  if (ahead.empty()) return;
  if (file_size == kUnknownSize) file_size = size();
  if (file_size == 0) return;
  const std::uint64_t last_page = (file_size - 1) / page_size;
  if (ahead.first > last_page) return;
  const std::size_t count = static_cast<std::size_t>(
      std::min<std::uint64_t>(ahead.count, last_page - ahead.first + 1));
  // With async_prefetch on, the window loads on the pool's I/O workers
  // while this reader keeps consuming warm pages; otherwise inline.
  fs_->pool_->prefetch_range_async(id_, ahead.first, count);
}

std::size_t ManagedFile::read(std::span<std::byte> out) {
  check<IoError>(fs_ != nullptr, "ManagedFile: read on closed file");
  Stopwatch watch;
  const std::uint64_t file_size = size();
  std::size_t total = 0;
  if (position_ < file_size && !out.empty()) {
    total = static_cast<std::size_t>(
        std::min<std::uint64_t>(out.size(), file_size - position_));
    for_each_page(*fs_->pool_, id_, position_, total,
                  [&](BufferPool::PageGuard guard, std::size_t within,
                      std::size_t take, std::size_t done) {
                    std::memcpy(out.data() + done,
                                guard.data().data() + within, take);
                  });
    run_prefetch(position_, total, file_size);
    position_ += total;
  }
  const double ms = watch.elapsed_ms();
  fs_->stats_.record(IoOp::kRead, total, ms);
  return total;
}

void ManagedFile::read_exact(std::span<std::byte> out) {
  const std::size_t n = read(out);
  check<IoError>(n == out.size(),
                 "ManagedFile: short read from '" + name_ + "'");
}

std::size_t ManagedFile::write(std::span<const std::byte> data) {
  check<IoError>(fs_ != nullptr, "ManagedFile: write on closed file");
  Stopwatch watch;
  if (!data.empty()) {
    for_each_page(*fs_->pool_, id_, position_, data.size(),
                  [&](BufferPool::PageGuard guard, std::size_t within,
                      std::size_t take, std::size_t done) {
                    std::memcpy(guard.data().data() + within,
                                data.data() + done, take);
                    guard.mark_dirty(within + take);
                  });
    run_prefetch(position_, data.size());
    position_ += data.size();
  }
  const double ms = watch.elapsed_ms();
  fs_->stats_.record(IoOp::kWrite, data.size(), ms);
  return data.size();
}

void ManagedFile::seek(std::uint64_t pos) {
  check<IoError>(fs_ != nullptr, "ManagedFile: seek on closed file");
  Stopwatch watch;
  position_ = pos;
  if (fs_->options_.prefetch_on_seek && size() > 0) {
    const std::size_t page_size = fs_->pool_->page_size();
    const std::uint64_t last_page = (size() - 1) / page_size;
    const std::uint64_t page = std::min(pos / page_size, last_page);
    // Touching the target page is what makes a cold seek expensive and a
    // warm seek nearly free — the Table 3/4 effect.
    fs_->pool_->prefetch(id_, page);
    run_prefetch(page * page_size, 1);
  }
  const double ms = watch.elapsed_ms();
  fs_->stats_.record(IoOp::kSeek, pos, ms);
}

void ManagedFile::close() {
  if (fs_ == nullptr) return;
  Stopwatch watch;
  // Outstanding async readahead for this file must land before the backing
  // handle is released; flush_file drains on entry, so only the no-flush
  // configuration needs the explicit drain.
  if (fs_->options_.writeback_on_close) {
    fs_->pool_->flush_file(id_);
  } else {
    fs_->pool_->drain_prefetches();
  }
  {
    std::lock_guard<std::mutex> lock(fs_->prefetcher_mutex_);
    fs_->prefetcher_.forget(id_);
  }
  fs_->store_->close(id_);
  const double ms = watch.elapsed_ms();
  fs_->stats_.record(IoOp::kClose, 0, ms);
  fs_ = nullptr;
  id_ = kInvalidFile;
}

}  // namespace clio::io
