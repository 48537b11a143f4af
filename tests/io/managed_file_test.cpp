#include "io/managed_file.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "io/fault_store.hpp"
#include "util/error.hpp"
#include "util/fs.hpp"
#include "util/rng.hpp"
#include "util/temp_dir.hpp"

namespace clio::io {
namespace {

std::span<const std::byte> as_bytes(const std::string& s) {
  return std::as_bytes(std::span<const char>(s.data(), s.size()));
}

std::string read_all(ManagedFile& f, std::size_t n) {
  std::vector<std::byte> buf(n);
  const std::size_t got = f.read(buf);
  return std::string(reinterpret_cast<const char*>(buf.data()), got);
}

class ManagedFileTest : public ::testing::Test {
 protected:
  ManagedFileTest() { reset(ManagedFsOptions{}); }

  void reset(ManagedFsOptions options) {
    options.page_size = 256;
    options.pool_pages = 16;
    fs_ = std::make_unique<ManagedFileSystem>(
        std::make_unique<RealFileStore>(dir_.path()), options);
  }

  util::TempDir dir_;
  std::unique_ptr<ManagedFileSystem> fs_;
};

TEST_F(ManagedFileTest, CreateWriteReadBack) {
  auto f = fs_->open("a.bin", OpenMode::kCreate);
  f.write(as_bytes("managed hello"));
  f.seek(0);
  EXPECT_EQ(read_all(f, 13), "managed hello");
  f.close();
}

TEST_F(ManagedFileTest, OpenMissingForReadThrows) {
  EXPECT_THROW(fs_->open("nope", OpenMode::kRead), util::IoError);
  EXPECT_THROW(fs_->open("nope", OpenMode::kReadWrite), util::IoError);
}

TEST_F(ManagedFileTest, TruncateWipesContent) {
  {
    auto f = fs_->open("t.bin", OpenMode::kCreate);
    f.write(as_bytes("old content"));
  }
  auto f = fs_->open("t.bin", OpenMode::kTruncate);
  EXPECT_EQ(f.size(), 0u);
}

TEST_F(ManagedFileTest, CreateKeepsExistingContent) {
  {
    auto f = fs_->open("k.bin", OpenMode::kCreate);
    f.write(as_bytes("keep"));
  }
  auto f = fs_->open("k.bin", OpenMode::kCreate);
  EXPECT_EQ(f.size(), 4u);
}

TEST_F(ManagedFileTest, PositionAdvancesOnReadAndWrite) {
  auto f = fs_->open("p.bin", OpenMode::kCreate);
  f.write(as_bytes("0123456789"));
  EXPECT_EQ(f.position(), 10u);
  f.seek(2);
  EXPECT_EQ(f.position(), 2u);
  EXPECT_EQ(read_all(f, 3), "234");
  EXPECT_EQ(f.position(), 5u);
}

TEST_F(ManagedFileTest, ReadAtEofReturnsZero) {
  auto f = fs_->open("e.bin", OpenMode::kCreate);
  f.write(as_bytes("xy"));
  std::vector<std::byte> buf(4);
  EXPECT_EQ(f.read(buf), 0u);  // position is at EOF after write
}

TEST_F(ManagedFileTest, ShortReadNearEof) {
  auto f = fs_->open("s.bin", OpenMode::kCreate);
  f.write(as_bytes("abcdef"));
  f.seek(4);
  EXPECT_EQ(read_all(f, 100), "ef");
}

TEST_F(ManagedFileTest, ReadExactThrowsOnShortRead) {
  auto f = fs_->open("x.bin", OpenMode::kCreate);
  f.write(as_bytes("abc"));
  f.seek(0);
  std::vector<std::byte> buf(10);
  EXPECT_THROW(f.read_exact(buf), util::IoError);
}

TEST_F(ManagedFileTest, MultiPageWriteRoundTrips) {
  // 5 pages of 256 B, written in one call, read back in one call.
  std::string content;
  for (int p = 0; p < 5; ++p) content += std::string(256, char('A' + p));
  auto f = fs_->open("big.bin", OpenMode::kCreate);
  f.write(as_bytes(content));
  f.seek(0);
  EXPECT_EQ(read_all(f, content.size()), content);
}

TEST_F(ManagedFileTest, UnalignedWritesPreserveNeighbors) {
  auto f = fs_->open("u.bin", OpenMode::kCreate);
  f.write(as_bytes(std::string(512, '.')));
  f.seek(250);  // straddles the page boundary at 256
  f.write(as_bytes("BOUNDARY"));
  f.seek(0);
  const std::string all = read_all(f, 512);
  EXPECT_EQ(all.substr(250, 8), "BOUNDARY");
  EXPECT_EQ(all[249], '.');
  EXPECT_EQ(all[258], '.');
}

TEST_F(ManagedFileTest, DataPersistsAfterCloseViaWriteback) {
  {
    auto f = fs_->open("persist.bin", OpenMode::kCreate);
    f.write(as_bytes("durable"));
    f.close();
  }
  // Fresh managed fs over the same directory: data must be on real disk.
  reset(ManagedFsOptions{});
  auto f = fs_->open("persist.bin", OpenMode::kRead);
  EXPECT_EQ(read_all(f, 7), "durable");
}

TEST_F(ManagedFileTest, CloseIsIdempotentAndOpsOnClosedThrow) {
  auto f = fs_->open("c.bin", OpenMode::kCreate);
  f.close();
  f.close();  // no-op
  std::vector<std::byte> buf(1);
  EXPECT_THROW(f.read(buf), util::IoError);
  EXPECT_THROW(f.write(as_bytes("x")), util::IoError);
  EXPECT_THROW(f.seek(0), util::IoError);
}

TEST_F(ManagedFileTest, DestructorClosesImplicitly) {
  {
    auto f = fs_->open("d.bin", OpenMode::kCreate);
    f.write(as_bytes("bye"));
  }  // destructor close
  auto f = fs_->open("d.bin", OpenMode::kRead);
  EXPECT_EQ(f.size(), 3u);
}

TEST_F(ManagedFileTest, MoveTransfersHandle) {
  auto a = fs_->open("m.bin", OpenMode::kCreate);
  a.write(as_bytes("moved"));
  ManagedFile b = std::move(a);
  EXPECT_FALSE(a.is_open());
  EXPECT_TRUE(b.is_open());
  b.seek(0);
  EXPECT_EQ(read_all(b, 5), "moved");
}

TEST_F(ManagedFileTest, StatsRecordEveryOpClass) {
  auto f = fs_->open("ops.bin", OpenMode::kCreate);
  f.write(as_bytes("payload"));
  f.seek(0);
  std::vector<std::byte> buf(7);
  f.read(buf);
  f.close();
  const IoStats& stats = fs_->stats();
  EXPECT_EQ(stats.op_stats(IoOp::kOpen).count(), 1u);
  EXPECT_EQ(stats.op_stats(IoOp::kWrite).count(), 1u);
  EXPECT_EQ(stats.op_stats(IoOp::kSeek).count(), 1u);
  EXPECT_EQ(stats.op_stats(IoOp::kRead).count(), 1u);
  EXPECT_EQ(stats.op_stats(IoOp::kClose).count(), 1u);
  EXPECT_EQ(stats.total_bytes(), 14u);  // 7 written + 7 read
}

TEST_F(ManagedFileTest, SequentialReadTriggersPrefetch) {
  // Write 8 pages, drop caches, then read sequentially: the prefetcher
  // must load pages ahead of the stream.
  {
    auto f = fs_->open("seq.bin", OpenMode::kCreate);
    f.write(as_bytes(std::string(8 * 256, 's')));
  }
  fs_->drop_caches();
  auto f = fs_->open("seq.bin", OpenMode::kRead);
  std::vector<std::byte> page(256);
  f.read(page);
  f.read(page);
  f.read(page);  // by now the streak is established
  EXPECT_GT(fs_->pool().stats().prefetches, 0u);
  // Pages ahead of the read position are already resident.
  const std::uint64_t next = f.position() / 256;
  EXPECT_TRUE(fs_->pool().contains(fs_->store().open("seq.bin", false), next));
}

TEST_F(ManagedFileTest, ColdSeekLoadsTargetPageWarmSeekFree) {
  {
    auto f = fs_->open("seek.bin", OpenMode::kCreate);
    f.write(as_bytes(std::string(16 * 256, 'k')));
  }
  fs_->drop_caches();
  auto f = fs_->open("seek.bin", OpenMode::kRead);
  const auto before = fs_->pool().stats();
  f.seek(10 * 256);  // cold: target page fetched
  const auto mid = fs_->pool().stats();
  EXPECT_GT(mid.prefetches, before.prefetches);
  f.seek(10 * 256);  // warm: nothing to fetch
  const auto after = fs_->pool().stats();
  EXPECT_EQ(after.prefetches, mid.prefetches);
}

TEST_F(ManagedFileTest, PrefetchOnSeekCanBeDisabled) {
  ManagedFsOptions options;
  options.prefetch_on_seek = false;
  reset(options);
  {
    auto f = fs_->open("ns.bin", OpenMode::kCreate);
    f.write(as_bytes(std::string(4 * 256, 'n')));
  }
  fs_->drop_caches();
  auto f = fs_->open("ns.bin", OpenMode::kRead);
  f.seek(2 * 256);
  EXPECT_EQ(fs_->pool().stats().prefetches, 0u);
}

TEST_F(ManagedFileTest, AsyncPrefetchSequentialReadSeesCorrectData) {
  ManagedFsOptions options;
  options.async_prefetch = true;
  options.prefetch_threads = 2;
  reset(options);
  std::string content;
  for (int p = 0; p < 16; ++p) content += std::string(256, char('A' + p));
  {
    auto f = fs_->open("async.bin", OpenMode::kCreate);
    f.write(as_bytes(content));
  }
  fs_->drop_caches();
  // drop_caches keeps the pool object (and its counters) alive now, so
  // count loads as a delta from this baseline.
  const PoolStats base = fs_->pool().stats();
  // Sequential page-sized reads: readahead runs on the background workers
  // while this loop consumes; every byte must still be exact.
  auto f = fs_->open("async.bin", OpenMode::kRead);
  std::string got;
  std::vector<std::byte> page(256);
  for (int p = 0; p < 16; ++p) {
    f.read_exact(page);
    got.append(reinterpret_cast<const char*>(page.data()), page.size());
  }
  EXPECT_EQ(got, content);
  fs_->pool().drain_prefetches();
  // Each of the 16 pages was loaded exactly once, by demand miss or by the
  // prefetch workers (pool holds the whole file; nothing was evicted).
  const PoolStats stats = fs_->pool().stats();
  EXPECT_EQ((stats.misses + stats.prefetches) -
                (base.misses + base.prefetches),
            16u);
}

TEST_F(ManagedFileTest, AsyncPrefetchCloseDrainsOutstandingReadahead) {
  ManagedFsOptions options;
  options.async_prefetch = true;
  options.writeback_on_close = false;  // close must drain even without flush
  reset(options);
  {
    auto f = fs_->open("drain.bin", OpenMode::kCreate);
    f.write(as_bytes(std::string(8 * 256, 'd')));
    fs_->pool().flush_all();  // writeback_on_close is off: persist manually
  }
  fs_->drop_caches();
  auto f = fs_->open("drain.bin", OpenMode::kRead);
  std::vector<std::byte> page(256);
  for (int p = 0; p < 4; ++p) f.read_exact(page);
  // Destructor-close while readahead may still be queued: the drain inside
  // close() must let it land before the backing fd is released.
  f.close();
  SUCCEED();
}

TEST_F(ManagedFileTest, ReadOnlyCloseDrainsReadaheadDespiteFlushFastPath) {
  // writeback_on_close=true routes close() through flush_file, whose
  // never-dirtied fast path must still drain queued readahead before the
  // backing fd is released — otherwise an async worker can gather from a
  // dead (or worse, reused) descriptor.  Regression for the flush
  // fast-path ordering.
  ManagedFsOptions options;
  options.async_prefetch = true;
  options.prefetch_threads = 2;
  reset(options);
  {
    auto f = fs_->open("ro.bin", OpenMode::kCreate);
    f.write(as_bytes(std::string(12 * 256, 'r')));
  }
  fs_->drop_caches();
  for (int round = 0; round < 8; ++round) {
    auto f = fs_->open("ro.bin", OpenMode::kRead);
    std::vector<std::byte> page(256);
    for (int p = 0; p < 3; ++p) f.read_exact(page);  // streak -> async hints
    f.close();  // read-only: dirty-extent fast path, must drain first
    EXPECT_EQ(static_cast<char>(page[0]), 'r');
  }
}

TEST_F(ManagedFileTest, RemoveDeletesClosedFile) {
  {
    auto f = fs_->open("rm.bin", OpenMode::kCreate);
    f.write(as_bytes("gone"));
  }
  EXPECT_TRUE(fs_->exists("rm.bin"));
  fs_->remove("rm.bin");
  EXPECT_FALSE(fs_->exists("rm.bin"));
}

TEST_F(ManagedFileTest, VectoredBackingOpsAreObservableFromIoStats) {
  // The coalescing ratio used to be visible only in bench output; now the
  // backing gathers are recorded as IoOp::kWritev / kReadv in IoStats.
  {
    auto f = fs_->open("vec.bin", OpenMode::kCreate);
    f.write(as_bytes(std::string(16 * 256, 'v')));
  }  // close flushes: 16 adjacent dirty pages coalesce into one writev
  const IoStats& stats = fs_->stats();
  EXPECT_EQ(stats.op_stats(IoOp::kWritev).count(), 1u);
  EXPECT_EQ(stats.op_bytes(IoOp::kWritev), 16 * 256u);
  // The same numbers are visible pool-side; the two layers must agree.
  const PoolStats pool_stats = fs_->pool().stats();
  EXPECT_EQ(pool_stats.flush_write_calls, 1u);
  EXPECT_EQ(pool_stats.flush_write_pages, 16u);

  fs_->drop_caches();  // evicts every page; counters keep accumulating
  auto f = fs_->open("vec.bin", OpenMode::kRead);
  std::vector<std::byte> page(256);
  for (int p = 0; p < 16; ++p) f.read_exact(page);
  fs_->pool().drain_prefetches();
  // Sequential reads established a streak and the readahead went out as
  // readv gathers; stats bytes must equal the pool's gathered pages.
  const std::uint64_t readv_calls = stats.op_stats(IoOp::kReadv).count();
  EXPECT_GE(readv_calls, 1u);
  EXPECT_EQ(stats.op_bytes(IoOp::kReadv),
            fs_->pool().stats().gather_read_pages * 256u);
  // Batching: strictly fewer backing calls than pages moved through them.
  EXPECT_LT(readv_calls, fs_->pool().stats().gather_read_pages);
}

TEST_F(ManagedFileTest, AsyncCloseDrainsDespiteInjectedWorkerFailures) {
  // A failing backing store must not wedge the drain that close() performs:
  // background readahead errors are swallowed, the demand path reports.
  auto owned = std::make_unique<FaultStore>(
      std::make_unique<RealFileStore>(dir_.path()));
  FaultStore* faults = owned.get();
  ManagedFsOptions options;
  options.page_size = 256;
  options.pool_pages = 16;
  options.async_prefetch = true;
  options.prefetch_threads = 2;
  ManagedFileSystem fs(std::move(owned), options);
  {
    auto f = fs.open("drain.bin", OpenMode::kCreate);
    f.write(as_bytes(std::string(12 * 256, 'x')));
  }
  fs.drop_caches();
  auto f = fs.open("drain.bin", OpenMode::kRead);
  std::vector<std::byte> page(256);
  for (int p = 0; p < 3; ++p) f.read_exact(page);  // streak -> async hints
  // Every backing gather the workers issue from here on fails.
  faults->fail_next(FaultOp::kReadv, 1000);
  for (int p = 3; p < 6; ++p) f.read_exact(page);  // more hints enqueued
  f.close();  // must drain the failing readahead queue and return
  faults->fail_next(FaultOp::kReadv, 0);
  // The file reads back intact afterwards.
  auto g = fs.open("drain.bin", OpenMode::kRead);
  for (int p = 0; p < 12; ++p) {
    g.read_exact(page);
    EXPECT_EQ(static_cast<char>(page[0]), 'x') << p;
  }
}

TEST_F(ManagedFileTest, ConcurrentReadersAndDisjointWriterMatchOracle) {
  // Readers gather overlapping multi-page spans of the first half of a file
  // while a writer rewrites the second half, all through one pool far
  // smaller than the file: gathers, demand pins, evictions and write-backs
  // interleave.  Every byte read is checked against the oracle.
  constexpr std::size_t kPage = 256;
  constexpr std::size_t kPages = 128;
  constexpr std::size_t kSplit = 64 * kPage;  // readers below, writer above
  auto byte_at = [](std::size_t pos, int version) {
    return static_cast<char>('a' + (pos / 7 + 3 * version) % 26);
  };
  std::string oracle(kPages * kPage, '\0');
  for (std::size_t i = 0; i < oracle.size(); ++i) oracle[i] = byte_at(i, 0);
  {
    auto f = fs_->open("shared.bin", OpenMode::kCreate);
    f.write(as_bytes(oracle));
  }
  fs_->drop_caches();

  std::atomic<int> bad_bytes{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&, t] {
      auto f = fs_->open("shared.bin", OpenMode::kRead);
      util::Rng rng(40 + t);
      std::vector<std::byte> buf;
      for (int i = 0; i < 300; ++i) {
        const std::size_t pos = rng.uniform_u64(kSplit - 1);
        const std::size_t len = 1 + rng.uniform_u64(
                                        std::min(kSplit - pos, 20 * kPage));
        buf.resize(len);
        f.seek(pos);
        if (f.read(buf) != len ||
            std::memcmp(buf.data(), oracle.data() + pos, len) != 0) {
          bad_bytes++;
        }
      }
    });
  }
  std::string final_content = oracle;
  threads.emplace_back([&] {
    auto f = fs_->open("shared.bin", OpenMode::kReadWrite);
    util::Rng rng(7);
    for (int version = 1; version <= 60; ++version) {
      const std::size_t pos = kSplit + rng.uniform_u64(oracle.size() - kSplit);
      const std::size_t len = 1 + rng.uniform_u64(
          std::min<std::size_t>(oracle.size() - pos, 12 * kPage));
      std::string piece(len, '\0');
      for (std::size_t i = 0; i < len; ++i) {
        piece[i] = byte_at(pos + i, version);
      }
      f.seek(pos);
      f.write(as_bytes(piece));
      final_content.replace(pos, len, piece);
    }
  });
  for (auto& th : threads) th.join();
  EXPECT_EQ(bad_bytes.load(), 0);
  fs_->pool().debug_validate();

  // The whole file, read back through the pool and then from disk.
  auto f = fs_->open("shared.bin", OpenMode::kRead);
  EXPECT_EQ(read_all(f, oracle.size()), final_content);
  f.close();
  fs_->pool().flush_all();
  EXPECT_EQ(util::read_text_file(dir_.path() / "shared.bin"), final_content);
  fs_->pool().debug_validate();
}

TEST_F(ManagedFileTest, WorksOverSimStoreToo) {
  ManagedFsOptions options;
  options.page_size = 256;
  options.pool_pages = 16;
  ManagedFileSystem sim_fs(std::make_unique<SimFileStore>(4, 64 * 1024),
                           options);
  auto f = sim_fs.open("sim.bin", OpenMode::kCreate);
  f.write(as_bytes("simulated"));
  f.seek(0);
  EXPECT_EQ(read_all(f, 9), "simulated");
  f.close();
  auto& store = dynamic_cast<SimFileStore&>(sim_fs.store());
  EXPECT_GT(store.consume_model_ms(), 0.0);
}

}  // namespace
}  // namespace clio::io
