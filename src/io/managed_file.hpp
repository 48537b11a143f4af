#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>

#include "io/buffer_pool.hpp"
#include "io/io_stats.hpp"
#include "io/prefetcher.hpp"

namespace clio::io {

/// How a ManagedFile is opened, mirroring .NET FileMode semantics.
enum class OpenMode {
  kRead,       ///< existing file, read-only intent
  kReadWrite,  ///< existing file, read/write
  kCreate,     ///< create if absent, keep content if present
  kTruncate,   ///< create or wipe
};

/// Knobs of the managed I/O stack; each maps to a paper observation or an
/// ablation in DESIGN.md §5.
struct ManagedFsOptions {
  std::size_t page_size = 4096;
  std::size_t pool_pages = 4096;      ///< 16 MiB cache by default
  std::size_t pool_shards = 0;        ///< lock stripes; 0 = auto (see BufferPoolConfig)
  PrefetchConfig prefetch;            ///< readahead policy
  bool prefetch_on_seek = true;       ///< paper: prefetch on read/write/seek
  /// Submit readahead gathers through the pool's async store and publish
  /// them from a completion reaper, so sequential reads overlap the window
  /// load with compute instead of paying for it inline (see
  /// BufferPoolConfig::async_prefetch).
  bool async_prefetch = false;
  std::size_t prefetch_threads = 1;   ///< async-store workers (see pool config)
  bool writeback_on_close = true;     ///< close flushes dirty pages
  bool keep_op_records = false;       ///< retain per-op rows for tables
};

class ManagedFile;

/// Facade owning the backing store, the buffer pool, the prefetcher and the
/// latency accounting.  This is the C++ analogue of the System.IO stack the
/// paper's benchmarks run on: every open/close/read/write/seek goes through
/// the pool and is timed into IoStats.
class ManagedFileSystem {
 public:
  ManagedFileSystem(std::unique_ptr<BackingStore> store,
                    ManagedFsOptions options = {});
  ~ManagedFileSystem();

  ManagedFileSystem(const ManagedFileSystem&) = delete;
  ManagedFileSystem& operator=(const ManagedFileSystem&) = delete;

  /// Opens a managed file (timed as an Open operation).
  [[nodiscard]] ManagedFile open(const std::string& name, OpenMode mode);

  [[nodiscard]] bool exists(const std::string& name) const;
  void remove(const std::string& name);

  [[nodiscard]] IoStats& stats() { return stats_; }
  [[nodiscard]] const IoStats& stats() const { return stats_; }
  [[nodiscard]] BufferPool& pool() { return *pool_; }
  [[nodiscard]] BackingStore& store() { return *store_; }

  /// The pool's submission/completion store (already stats-bound), or null
  /// when the stack runs fully synchronously.
  [[nodiscard]] AsyncBackingStore* async_store() {
    return pool_->async_store();
  }
  [[nodiscard]] const ManagedFsOptions& options() const { return options_; }

  /// Drops every cached page (flushing dirty ones first).  Benchmarks call
  /// this to re-create a cold cache between trials.
  void drop_caches();

 private:
  friend class ManagedFile;

  [[nodiscard]] BufferPoolConfig pool_config() const;

  // Declaration order is destruction-critical: the pool's destructor
  // flushes through pool_store_ into stats_, so both must outlive pool_
  // (i.e. be declared before it).
  std::unique_ptr<BackingStore> store_;
  ManagedFsOptions options_;
  IoStats stats_;  ///< internally synchronized
  /// The store the pool actually talks to: `store_` wrapped in a decorator
  /// that times every vectored backing call into stats_ (IoOp::kReadv /
  /// kWritev), so coalescing ratios show up in the op table.
  std::unique_ptr<BackingStore> pool_store_;
  std::unique_ptr<BufferPool> pool_;
  SequentialPrefetcher prefetcher_;
  std::mutex prefetcher_mutex_;
};

/// A position-tracking stream over one file, in the style of .NET
/// FileStream.  Movable, auto-closes on destruction.  Not thread-safe per
/// instance (each server thread opens its own stream, as in the paper).
class ManagedFile {
 public:
  ManagedFile() = default;
  ManagedFile(ManagedFile&& other) noexcept;
  ManagedFile& operator=(ManagedFile&& other) noexcept;
  ManagedFile(const ManagedFile&) = delete;
  ManagedFile& operator=(const ManagedFile&) = delete;
  ~ManagedFile();

  /// Reads up to out.size() bytes from the current position; returns the
  /// count actually read (0 at EOF).  Timed as a Read.
  std::size_t read(std::span<std::byte> out);

  /// Reads exactly `out.size()` bytes or throws IoError.
  void read_exact(std::span<std::byte> out);

  /// Writes all bytes at the current position, extending the file.  Timed
  /// as a Write.  Returns the count actually accepted into the stream —
  /// callers that report bytes written (e.g. the VM's file_write syscall)
  /// must echo this, not the requested count.  A failure mid-write (a
  /// faulting page load under a partial-page write) throws instead, with
  /// the position unchanged past the accepted prefix.
  std::size_t write(std::span<const std::byte> data);

  /// Moves the stream position (absolute, from the beginning — the paper's
  /// replay semantics).  Touches the target page when prefetch_on_seek is
  /// set.  Timed as a Seek.
  void seek(std::uint64_t pos);

  /// Flushes this file's dirty pages (when writeback_on_close is set) and
  /// releases the handle.  Timed as a Close.  Idempotent.
  void close();

  [[nodiscard]] bool is_open() const { return fs_ != nullptr; }
  [[nodiscard]] std::uint64_t position() const { return position_; }
  [[nodiscard]] std::uint64_t size() const;
  [[nodiscard]] const std::string& name() const { return name_; }
  /// The backing-store id behind this stream — the seam the serving
  /// layer's zero-copy path needs to pin this file's pages directly
  /// (BufferPool::pin) or fetch its POSIX descriptor for sendfile
  /// (RealFileStore::native_handle).  Valid while the file is open.
  [[nodiscard]] FileId id() const { return id_; }

 private:
  friend class ManagedFileSystem;
  ManagedFile(ManagedFileSystem* fs, FileId id, std::string name);

  /// Sentinel for "caller has not computed the file size".
  static constexpr std::uint64_t kUnknownSize = UINT64_MAX;

  /// Reports the pages of a call's bytes [pos, pos + len), len > 0, to the
  /// prefetcher once and loads the readahead it proposes beyond them.
  void run_prefetch(std::uint64_t pos, std::size_t len,
                    std::uint64_t file_size = kUnknownSize);

  ManagedFileSystem* fs_ = nullptr;
  FileId id_ = kInvalidFile;
  std::string name_;
  std::uint64_t position_ = 0;
};

}  // namespace clio::io
