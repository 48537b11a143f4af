// Coverage for the coalesced + asynchronous read path: BackingStore::readv
// batching in prefetch_range, EOF clamping, failure unwinding, the
// background prefetch workers, and ManagedFile's per-call gathers.  The concurrency cases double as TSan
// targets in CI.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "io/buffer_pool.hpp"
#include "io/file_store.hpp"
#include "io/managed_file.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/temp_dir.hpp"

namespace clio::io {
namespace {

std::span<const std::byte> as_bytes(const std::string& s) {
  return std::as_bytes(std::span<const char>(s.data(), s.size()));
}

/// In-memory BackingStore that counts read/readv calls and can inject read
/// failures, for asserting how prefetch_range batches its backing accesses.
/// Counters are atomic because async-prefetch tests exercise it from the
/// pool's worker threads.
class CountingReadStore final : public BackingStore {
 public:
  FileId open(const std::string& name, bool create) override {
    if (auto it = by_name_.find(name); it != by_name_.end()) return it->second;
    util::check<util::IoError>(create, "CountingReadStore: no such file");
    const auto id = static_cast<FileId>(files_.size());
    files_.emplace_back();
    by_name_.emplace(name, id);
    return id;
  }
  void close(FileId) override {}
  [[nodiscard]] std::uint64_t size(FileId id) const override {
    return files_.at(id).size();
  }
  void truncate(FileId id, std::uint64_t new_size) override {
    files_.at(id).resize(new_size);
  }
  std::size_t read(FileId id, std::uint64_t offset,
                   std::span<std::byte> out) override {
    maybe_fail();
    read_calls++;
    return copy_out(id, offset, out);
  }
  std::size_t readv(FileId id, std::uint64_t offset,
                    std::span<const std::span<std::byte>> parts) override {
    maybe_fail();
    readv_calls++;
    std::size_t total = 0;
    for (const auto& part : parts) {
      const std::size_t n = copy_out(id, offset + total, part);
      total += n;
      if (n < part.size()) break;
    }
    return total;
  }
  void write(FileId id, std::uint64_t offset,
             std::span<const std::byte> data) override {
    auto& file = files_.at(id);
    if (offset + data.size() > file.size()) file.resize(offset + data.size());
    std::memcpy(file.data() + offset, data.data(), data.size());
  }
  [[nodiscard]] bool exists(const std::string& name) const override {
    return by_name_.contains(name);
  }
  [[nodiscard]] FileId lookup(const std::string& name) const override {
    const auto it = by_name_.find(name);
    return it == by_name_.end() ? kInvalidFile : it->second;
  }
  void remove(const std::string& name) override { by_name_.erase(name); }

  std::atomic<std::uint64_t> read_calls{0};
  std::atomic<std::uint64_t> readv_calls{0};
  std::atomic<int> fail_reads{0};  ///< next N read/readv calls throw

 private:
  void maybe_fail() {
    if (fail_reads.load() > 0 && fail_reads.fetch_sub(1) > 0) {
      throw util::IoError("CountingReadStore: injected read failure");
    }
  }

  std::size_t copy_out(FileId id, std::uint64_t offset,
                       std::span<std::byte> out) {
    const auto& data = files_.at(id);
    if (offset >= data.size()) return 0;
    const std::size_t n =
        std::min<std::size_t>(out.size(), data.size() - offset);
    std::memcpy(out.data(), data.data() + offset, n);
    return n;
  }

  std::vector<std::vector<std::byte>> files_;
  std::unordered_map<std::string, FileId> by_name_;
};

/// `pages` full pages of recognizable per-page content plus `tail_bytes`
/// of 'T' after the last full page.
FileId make_file(CountingReadStore& store, std::size_t page_size,
                 std::size_t pages, std::size_t tail_bytes = 0) {
  const FileId file = store.open("data.bin", true);
  std::string content;
  for (std::size_t p = 0; p < pages; ++p) {
    content += std::string(page_size, char('a' + p % 26));
  }
  content += std::string(tail_bytes, 'T');
  store.write(file, 0, as_bytes(content));
  return file;
}

// ------------------------------------------------------------ batching ----

TEST(PrefetchReadv, SequentialWindowIssuesOneGatherRead) {
  CountingReadStore store;
  const FileId file = make_file(store, 256, 16);
  BufferPool pool(store, BufferPoolConfig{.page_size = 256,
                                          .capacity_pages = 32,
                                          .shards = 4});
  constexpr std::size_t kWindow = 16;
  EXPECT_EQ(pool.prefetch_range(file, 0, kWindow), kWindow);
  // The whole sequential window must go out as a single vectored gather —
  // not one backing read per page, the pre-coalescing behaviour.
  EXPECT_EQ(store.readv_calls, 1u);
  EXPECT_EQ(store.read_calls, 0u);
  // The batching ratio is observable from PoolStats alone now, not just
  // from instrumented test stores: 16 pages over 1 backing call.
  EXPECT_EQ(pool.stats().gather_read_calls, 1u);
  EXPECT_EQ(pool.stats().gather_read_pages, kWindow);
  EXPECT_EQ(pool.resident_pages(), kWindow);
  EXPECT_EQ(pool.stats().prefetches, kWindow);
  for (std::uint64_t p = 0; p < kWindow; ++p) {
    auto g = pool.pin(file, p);
    EXPECT_EQ(static_cast<char>(g.data()[0]), char('a' + p % 26)) << p;
    EXPECT_EQ(g.valid_bytes(), 256u);
  }
  EXPECT_EQ(pool.stats().hits, kWindow);
  EXPECT_EQ(pool.stats().misses, 0u);
}

TEST(PrefetchReadv, ResidentPagesSplitTheWindowIntoRuns) {
  CountingReadStore store;
  const FileId file = make_file(store, 256, 16);
  BufferPool pool(store, BufferPoolConfig{.page_size = 256,
                                          .capacity_pages = 32,
                                          .shards = 4});
  EXPECT_TRUE(pool.prefetch(file, 4));  // single-page path: one read()
  EXPECT_EQ(store.read_calls, 1u);
  // Page 4 is resident, so the window splits into runs [0..3] and [5..9].
  EXPECT_EQ(pool.prefetch_range(file, 0, 10), 9u);
  EXPECT_EQ(store.readv_calls, 2u);
  EXPECT_EQ(pool.resident_pages(), 10u);
}

TEST(PrefetchReadv, CoalesceLimitBoundsRunLength) {
  CountingReadStore store;
  const FileId file = make_file(store, 256, 16);
  BufferPool pool(store, BufferPoolConfig{.page_size = 256,
                                          .capacity_pages = 32,
                                          .shards = 1,
                                          .coalesce_pages = 4});
  EXPECT_EQ(pool.prefetch_range(file, 0, 16), 16u);
  EXPECT_EQ(store.readv_calls, 4u);  // 16 pages / 4 per gather
  EXPECT_EQ(pool.stats().gather_read_calls, 4u);
  EXPECT_EQ(pool.stats().gather_read_pages, 16u);
}

// ---------------------------------------------------------- EOF clamps ----

TEST(PrefetchReadv, WindowIsClampedToEndOfFile) {
  CountingReadStore store;
  // 5 full pages plus a 100-byte tail page: pages 0..5 exist, 6+ do not.
  const FileId file = make_file(store, 256, 5, 100);
  BufferPool pool(store, BufferPoolConfig{.page_size = 256,
                                          .capacity_pages = 32,
                                          .shards = 4});
  EXPECT_EQ(pool.prefetch_range(file, 4, 8), 2u);  // pages 4 and 5 only
  EXPECT_EQ(store.readv_calls, 1u);
  EXPECT_FALSE(pool.contains(file, 6));
  EXPECT_EQ(pool.resident_pages(), 2u);
  auto tail = pool.pin(file, 5);
  EXPECT_EQ(tail.valid_bytes(), 100u);
  EXPECT_EQ(static_cast<char>(tail.data()[99]), 'T');
  EXPECT_EQ(tail.data()[100], std::byte{0});  // zero past the valid extent
}

TEST(PrefetchReadv, WindowEntirelyPastEofLoadsNothing) {
  CountingReadStore store;
  const FileId file = make_file(store, 256, 4);
  BufferPool pool(store, BufferPoolConfig{.page_size = 256,
                                          .capacity_pages = 32,
                                          .shards = 4});
  EXPECT_EQ(pool.prefetch_range(file, 100, 8), 0u);
  EXPECT_EQ(store.readv_calls + store.read_calls, 0u);
  EXPECT_EQ(pool.resident_pages(), 0u);
  // An empty file never prefetches either.
  const FileId empty = store.open("empty.bin", true);
  EXPECT_EQ(pool.prefetch_range(empty, 0, 8), 0u);
  EXPECT_EQ(pool.resident_pages(), 0u);
}

TEST(PrefetchReadv, PinPastEndOfStoreZeroFillsWithoutARead) {
  CountingReadStore store;
  const FileId file = make_file(store, 256, 2, 10);
  BufferPool pool(store, BufferPoolConfig{.page_size = 256,
                                          .capacity_pages = 8});
  {
    auto g = pool.pin(file, 5);
    EXPECT_EQ(g.valid_bytes(), 0u);
    for (const std::byte b : g.data()) ASSERT_EQ(b, std::byte{0});
  }
  EXPECT_EQ(store.read_calls, 0u);
  {
    auto tail = pool.pin(file, 2);  // the 10-byte tail page is read
    EXPECT_EQ(tail.valid_bytes(), 10u);
  }
  EXPECT_EQ(store.read_calls, 1u);
  pool.debug_validate();
}

// ------------------------------------------------------------ failures ----

TEST(PrefetchReadv, FailedGatherLeavesNoHalfValidFramesResident) {
  CountingReadStore store;
  const FileId file = make_file(store, 256, 8);
  BufferPool pool(store, BufferPoolConfig{.page_size = 256,
                                          .capacity_pages = 32,
                                          .shards = 4});
  store.fail_reads = 1;
  EXPECT_THROW(static_cast<void>(pool.prefetch_range(file, 0, 8)),
               util::IoError);
  EXPECT_EQ(pool.resident_pages(), 0u);
  // Stats stay exact: nothing was loaded, so nothing counts as prefetched.
  EXPECT_EQ(pool.stats().prefetches, 0u);
  pool.debug_validate();  // the unwind left no leaked latch or frame
  // The frames were returned to the pool: a retry loads everything fresh.
  EXPECT_EQ(pool.prefetch_range(file, 0, 8), 8u);
  EXPECT_EQ(pool.stats().prefetches, 8u);
  for (std::uint64_t p = 0; p < 8; ++p) {
    auto g = pool.pin(file, p);
    EXPECT_EQ(static_cast<char>(g.data()[0]), char('a' + p)) << p;
  }
}

TEST(PrefetchReadv, FailureInSecondRunKeepsFirstRunResident) {
  CountingReadStore store;
  const FileId file = make_file(store, 256, 12);
  BufferPool pool(store, BufferPoolConfig{.page_size = 256,
                                          .capacity_pages = 32,
                                          .shards = 1,
                                          .coalesce_pages = 4});
  // A completed gather's pages are published and stay resident; a later
  // failed gather must unwind only its own claimed frames.
  EXPECT_EQ(pool.prefetch_range(file, 0, 4), 4u);  // run 1 resident
  store.fail_reads = 1;
  EXPECT_THROW(static_cast<void>(pool.prefetch_range(file, 4, 8)),
               util::IoError);
  EXPECT_EQ(pool.resident_pages(), 4u);  // only run 1 remains
  for (std::uint64_t p = 0; p < 4; ++p) EXPECT_TRUE(pool.contains(file, p));
  for (std::uint64_t p = 4; p < 12; ++p) EXPECT_FALSE(pool.contains(file, p));
}

// ----------------------------------------------------------- contention ----

TEST(PrefetchReadv, ConcurrentPrefetchAndPinOfSameRangeStayCoherent) {
  util::TempDir dir;
  RealFileStore store(dir.path());
  const FileId file = store.open("data.bin", true);
  constexpr std::uint64_t kPages = 64;
  std::string content;
  for (std::uint64_t p = 0; p < kPages; ++p) {
    content += std::string(256, char('a' + p % 26));
  }
  store.write(file, 0, as_bytes(content));
  // Pool smaller than the file: prefetch and demand pins contend for
  // frames and evict each other's pages while gathers are in flight.
  BufferPool pool(store, BufferPoolConfig{.page_size = 256,
                                          .capacity_pages = 32,
                                          .shards = 4});
  std::atomic<int> bad_bytes{0};
  std::atomic<bool> stop{false};
  std::thread prefetcher([&] {
    while (!stop.load()) {
      for (std::uint64_t p = 0; p < kPages; p += 8) {
        static_cast<void>(pool.prefetch_range(file, p, 8));
      }
    }
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      util::Rng rng(100 + t);
      for (int i = 0; i < 3000; ++i) {
        const std::uint64_t page = rng.uniform_u64(kPages);
        auto g = pool.pin(file, page);
        if (static_cast<char>(g.data()[0]) != char('a' + page % 26)) {
          bad_bytes++;
        }
      }
    });
  }
  for (auto& th : readers) th.join();
  stop.store(true);
  prefetcher.join();
  EXPECT_EQ(bad_bytes.load(), 0);
}

// ------------------------------------------------- ManagedFile gathers ----

/// A ManagedFileSystem over a CountingReadStore; `store` stays readable
/// through the raw pointer while the file system owns it.
struct CountingFs {
  explicit CountingFs(std::size_t pool_pages, std::size_t shards = 0) {
    auto owned = std::make_unique<CountingReadStore>();
    store = owned.get();
    ManagedFsOptions options;
    options.page_size = 256;
    options.pool_pages = pool_pages;
    options.pool_shards = shards;
    fs = std::make_unique<ManagedFileSystem>(std::move(owned), options);
  }
  CountingReadStore* store = nullptr;
  std::unique_ptr<ManagedFileSystem> fs;
};

std::string expected_pages(std::size_t first, std::size_t count) {
  std::string out;
  for (std::size_t p = first; p < first + count; ++p) {
    out += std::string(256, char('a' + p % 26));
  }
  return out;
}

std::string read_string(ManagedFile& f, std::size_t n) {
  std::string out(n, '\0');
  const std::size_t got =
      f.read(std::as_writable_bytes(std::span<char>(out.data(), n)));
  out.resize(got);
  return out;
}

TEST(ManagedFileGather, ColdReadLoadsOneGatherPerChunk) {
  CountingFs cfs(/*pool_pages=*/256);
  make_file(*cfs.store, 256, 150);
  auto f = cfs.fs->open("data.bin", OpenMode::kRead);
  EXPECT_EQ(read_string(f, 150 * 256), expected_pages(0, 150));
  // ceil(150 / 64) gathers of coalesce_pages each, no single-page reads;
  // the readahead past the call is clamped away at end-of-file.
  const PoolStats stats = cfs.fs->pool().stats();
  EXPECT_EQ(stats.gather_read_calls, 3u);
  EXPECT_EQ(stats.gather_read_pages, 150u);
  EXPECT_EQ(cfs.store->readv_calls, 3u);
  EXPECT_EQ(cfs.store->read_calls, 0u);
  EXPECT_EQ(stats.misses, 0u);  // every pin hit a gathered page
  EXPECT_EQ(stats.hits, 150u);
}

TEST(ManagedFileGather, MixedResidencyGathersOnlyTheColdRuns) {
  CountingFs cfs(/*pool_pages=*/64);
  const FileId id = make_file(*cfs.store, 256, 32);
  for (const std::uint64_t p : {5, 6, 7, 20}) {
    EXPECT_TRUE(cfs.fs->pool().prefetch(id, p));  // one read() each
  }
  EXPECT_EQ(cfs.store->read_calls, 4u);
  auto f = cfs.fs->open("data.bin", OpenMode::kRead);
  EXPECT_EQ(read_string(f, 32 * 256), expected_pages(0, 32));
  // Cold runs [0, 5), [8, 20) and [21, 32): one gather each.
  const PoolStats stats = cfs.fs->pool().stats();
  EXPECT_EQ(cfs.store->readv_calls, 3u);
  EXPECT_EQ(cfs.store->read_calls, 4u);
  EXPECT_EQ(stats.gather_read_calls, 3u);
  EXPECT_EQ(stats.gather_read_pages, 28u);
}

TEST(ManagedFileGather, PoolSmallerThanAChunkStillRoundTrips) {
  CountingFs cfs(/*pool_pages=*/4, /*shards=*/1);
  const std::string content = expected_pages(0, 40);
  {
    auto f = cfs.fs->open("small.bin", OpenMode::kCreate);
    EXPECT_NO_THROW(f.write(as_bytes(content)));
  }
  auto f = cfs.fs->open("small.bin", OpenMode::kReadWrite);
  std::string got;
  EXPECT_NO_THROW(got = read_string(f, content.size()));
  EXPECT_EQ(got, content);
  // Overwrite an unaligned span in the middle, then read it all again.
  const std::string patch(9 * 256 + 17, 'Z');
  f.seek(3 * 256 + 100);
  EXPECT_NO_THROW(f.write(as_bytes(patch)));
  std::string want = content;
  want.replace(3 * 256 + 100, patch.size(), patch);
  f.seek(0);
  EXPECT_NO_THROW(got = read_string(f, want.size()));
  EXPECT_EQ(got, want);
  f.close();
  cfs.fs->pool().debug_validate();
}

TEST(ManagedFileGather, OnePageReadsAcrossCallsKeepReadahead) {
  CountingFs cfs(/*pool_pages=*/64);
  const FileId id = make_file(*cfs.store, 256, 16);
  auto f = cfs.fs->open("data.bin", OpenMode::kRead);
  EXPECT_EQ(read_string(f, 256), expected_pages(0, 1));
  EXPECT_FALSE(cfs.fs->pool().contains(id, 1));  // no streak yet
  EXPECT_EQ(read_string(f, 256), expected_pages(1, 1));
  // Two consecutive one-page calls make a streak: the default 4-page
  // window beyond the second call is resident.
  for (std::uint64_t p = 2; p < 6; ++p) {
    EXPECT_TRUE(cfs.fs->pool().contains(id, p)) << p;
  }
  EXPECT_FALSE(cfs.fs->pool().contains(id, 6));
  // The next call's page was read ahead: its own load makes no store call
  // (the only new gather is the window sliding on to page 6).
  const std::uint64_t gathers = cfs.store->readv_calls;
  EXPECT_EQ(read_string(f, 256), expected_pages(2, 1));
  EXPECT_EQ(cfs.store->readv_calls, gathers + 1);
  EXPECT_TRUE(cfs.fs->pool().contains(id, 6));
  EXPECT_EQ(cfs.fs->pool().stats().misses, 0u);
}

TEST(ManagedFileGather, MultiPageCallsAcrossCallsKeepReadahead) {
  CountingFs cfs(/*pool_pages=*/64);
  const FileId id = make_file(*cfs.store, 256, 32);
  auto f = cfs.fs->open("data.bin", OpenMode::kRead);
  // Chunked sequential reads, 3 pages a call: each call proposes one
  // window beyond its own range.
  EXPECT_EQ(read_string(f, 3 * 256), expected_pages(0, 3));
  for (std::uint64_t p = 3; p < 7; ++p) {
    EXPECT_TRUE(cfs.fs->pool().contains(id, p)) << p;
  }
  EXPECT_EQ(read_string(f, 3 * 256), expected_pages(3, 3));
  for (std::uint64_t p = 6; p < 10; ++p) {
    EXPECT_TRUE(cfs.fs->pool().contains(id, p)) << p;
  }
  EXPECT_FALSE(cfs.fs->pool().contains(id, 10));
}

TEST(ManagedFileGather, WritingANewFileMakesNoStoreReads) {
  CountingFs cfs(/*pool_pages=*/64);
  const std::string content = expected_pages(0, 20) + "tail";
  {
    auto f = cfs.fs->open("fresh.bin", OpenMode::kCreate);
    // Unaligned pieces: page-straddling and partial-page writes alike.
    for (std::size_t off = 0; off < content.size(); off += 1000) {
      const std::size_t n = std::min<std::size_t>(1000, content.size() - off);
      f.write(as_bytes(content.substr(off, n)));
    }
    // Every page lies past the store's end until the close flushes it,
    // so none of them may cost a backing read.
    EXPECT_EQ(cfs.store->read_calls + cfs.store->readv_calls, 0u);
  }
  cfs.fs->drop_caches();
  auto f = cfs.fs->open("fresh.bin", OpenMode::kRead);
  EXPECT_EQ(read_string(f, content.size() + 10), content);
}

// ------------------------------------------------------- async prefetch ----

TEST(AsyncPrefetch, LoadsInBackgroundAndDrainsOnDemand) {
  CountingReadStore store;
  const FileId file = make_file(store, 256, 16);
  BufferPool pool(store, BufferPoolConfig{.page_size = 256,
                                          .capacity_pages = 32,
                                          .shards = 4,
                                          .async_prefetch = true,
                                          .prefetch_threads = 2});
  EXPECT_EQ(pool.prefetch_range_async(file, 0, 16), 0u);  // queued, not done
  pool.drain_prefetches();
  EXPECT_EQ(pool.resident_pages(), 16u);
  EXPECT_EQ(pool.stats().prefetches, 16u);
  EXPECT_GE(store.readv_calls, 1u);
  for (std::uint64_t p = 0; p < 16; ++p) {
    auto g = pool.pin(file, p);
    EXPECT_EQ(static_cast<char>(g.data()[0]), char('a' + p % 26)) << p;
  }
}

TEST(AsyncPrefetch, SyncFallbackWhenDisabled) {
  CountingReadStore store;
  const FileId file = make_file(store, 256, 8);
  BufferPool pool(store, BufferPoolConfig{.page_size = 256,
                                          .capacity_pages = 32,
                                          .shards = 4});
  // Without workers the async entry point degrades to the inline path and
  // reports what it loaded.
  EXPECT_EQ(pool.prefetch_range_async(file, 0, 8), 8u);
  EXPECT_EQ(pool.resident_pages(), 8u);
  pool.drain_prefetches();  // no-op, must not block
}

TEST(AsyncPrefetch, FlushDrainsTheQueueFirst) {
  CountingReadStore store;
  const FileId file = make_file(store, 256, 16);
  BufferPool pool(store, BufferPoolConfig{.page_size = 256,
                                          .capacity_pages = 32,
                                          .shards = 4,
                                          .async_prefetch = true,
                                          .prefetch_threads = 1});
  {
    auto g = pool.pin(file, 0);
    g.data()[0] = static_cast<std::byte>('Z');
    g.mark_dirty(256);
  }
  static_cast<void>(pool.prefetch_range_async(file, 8, 8));
  pool.flush_all();  // must drain the readahead queue before flushing
  // Dirty page 0 plus the 8 prefetched pages are all resident afterwards.
  EXPECT_EQ(pool.resident_pages(), 9u);
  for (std::uint64_t p = 8; p < 16; ++p) EXPECT_TRUE(pool.contains(file, p));
  std::vector<std::byte> b(1);
  store.read(file, 0, b);
  EXPECT_EQ(static_cast<char>(b[0]), 'Z');
}

TEST(AsyncPrefetch, BackgroundFailureIsSwallowedAndLeavesPoolClean) {
  CountingReadStore store;
  const FileId file = make_file(store, 256, 8);
  BufferPool pool(store, BufferPoolConfig{.page_size = 256,
                                          .capacity_pages = 32,
                                          .shards = 4,
                                          .async_prefetch = true,
                                          .prefetch_threads = 1});
  store.fail_reads = 1;
  static_cast<void>(pool.prefetch_range_async(file, 0, 8));
  pool.drain_prefetches();  // worker hit the injected failure and unwound
  EXPECT_EQ(pool.resident_pages(), 0u);
  // The reader sees the file normally afterwards.
  auto g = pool.pin(file, 0);
  EXPECT_EQ(static_cast<char>(g.data()[0]), 'a');
}

TEST(AsyncPrefetch, FlushStillDrainsWhenEveryWorkerGatherFails) {
  CountingReadStore store;
  const FileId file = make_file(store, 256, 32);
  BufferPool pool(store, BufferPoolConfig{.page_size = 256,
                                          .capacity_pages = 64,
                                          .shards = 4,
                                          .async_prefetch = true,
                                          .prefetch_threads = 2});
  // Dirty a page, then queue readahead that will all fail in the workers.
  {
    auto g = pool.pin(file, 0);
    g.data()[0] = static_cast<std::byte>('W');
    g.mark_dirty(256);
  }
  store.fail_reads = 1000;
  for (std::uint64_t p = 0; p < 32; p += 8) {
    static_cast<void>(pool.prefetch_range_async(file, p, 8));
  }
  // flush_file must drain the failing queue (bounded, no hang) and still
  // persist the dirty page; background failures never surface here.
  pool.flush_file(file);
  store.fail_reads = 0;
  std::vector<std::byte> b(1);
  store.read(file, 0, b);
  EXPECT_EQ(static_cast<char>(b[0]), 'W');
  pool.debug_validate();
}

TEST(AsyncPrefetch, FailedBackgroundReadLeavesPageColdAndDemandReports) {
  CountingReadStore store;
  const FileId file = make_file(store, 256, 8);
  BufferPool pool(store, BufferPoolConfig{.page_size = 256,
                                          .capacity_pages = 32,
                                          .shards = 4,
                                          .async_prefetch = true,
                                          .prefetch_threads = 1});
  // First failure hits the worker's gather: swallowed, pages stay cold —
  // never half-valid.
  store.fail_reads = 2;
  static_cast<void>(pool.prefetch_range_async(file, 0, 8));
  pool.drain_prefetches();
  for (std::uint64_t p = 0; p < 8; ++p) EXPECT_FALSE(pool.contains(file, p));
  pool.debug_validate();
  // Second failure hits the demand fault, which *does* report the error.
  EXPECT_THROW(static_cast<void>(pool.pin(file, 0)), util::IoError);
  pool.debug_validate();
  // With the fault gone the page loads normally — nothing was wedged.
  auto g = pool.pin(file, 0);
  EXPECT_EQ(static_cast<char>(g.data()[0]), 'a');
}

TEST(AsyncPrefetch, DestructorDrainsWithFailingWorkers) {
  CountingReadStore store;
  const FileId file = make_file(store, 256, 32);
  {
    BufferPool pool(store, BufferPoolConfig{.page_size = 256,
                                            .capacity_pages = 64,
                                            .shards = 4,
                                            .async_prefetch = true,
                                            .prefetch_threads = 2});
    store.fail_reads = 1000;
    for (std::uint64_t p = 0; p < 32; p += 4) {
      static_cast<void>(pool.prefetch_range_async(file, p, 4));
    }
    // Destructor: quiesce workers mid-failure, then best-effort flush.
    // Must join cleanly — ASan/TSan veto leaked threads or frames.
  }
  store.fail_reads = 0;
  SUCCEED();
}

TEST(AsyncPrefetch, ConcurrentAsyncPrefetchAndPinsStayCoherent) {
  util::TempDir dir;
  RealFileStore store(dir.path());
  const FileId file = store.open("data.bin", true);
  constexpr std::uint64_t kPages = 64;
  std::string content;
  for (std::uint64_t p = 0; p < kPages; ++p) {
    content += std::string(256, char('a' + p % 26));
  }
  store.write(file, 0, as_bytes(content));
  BufferPool pool(store, BufferPoolConfig{.page_size = 256,
                                          .capacity_pages = 32,
                                          .shards = 4,
                                          .async_prefetch = true,
                                          .prefetch_threads = 2});
  std::atomic<int> bad_bytes{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      util::Rng rng(10 + t);
      for (int i = 0; i < 2000; ++i) {
        const std::uint64_t page = rng.uniform_u64(kPages);
        static_cast<void>(pool.prefetch_range_async(file, page, 4));
        auto g = pool.pin(file, page);
        if (static_cast<char>(g.data()[0]) != char('a' + page % 26)) {
          bad_bytes++;
        }
      }
    });
  }
  for (auto& th : readers) th.join();
  pool.drain_prefetches();
  EXPECT_EQ(bad_bytes.load(), 0);
}

}  // namespace
}  // namespace clio::io
