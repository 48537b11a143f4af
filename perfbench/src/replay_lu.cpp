// replay_lu: replays the out-of-core LU panel schedule (Table 3 of the
// paper, apps::lu::lu_trace_schedule) through the public ManagedFile calls,
// one record at a time, against a sample file four times the size of the
// default 16 MiB buffer pool.  Reads and writes mix, so the run exercises
// pool misses, readahead gathers, evictions, write-backs and coalesced
// flushes.  Every read is checked against the benchmark's shadow copy of
// the file; every write payload comes from the benchmark's generator; after
// the last close the file is read back with plain POSIX reads and compared
// byte for byte.

#include <fcntl.h>
#include <unistd.h>

#include <cstring>
#include <memory>
#include <string>

#include "apps/lu/ooc_lu.hpp"
#include "common.hpp"
#include "io/file_store.hpp"
#include "io/managed_file.hpp"
#include "layers.hpp"

namespace perfbench {
namespace {

using clio::io::ManagedFile;
using clio::io::ManagedFileSystem;
using clio::io::OpenMode;
using clio::trace::TraceOp;

// 2896^2 doubles = 64 MiB: four times the default pool.  64-column panels
// (1.48 MB each) give 46 panels, about 1100 read/write records per replay.
constexpr std::size_t kN = 2896;
constexpr std::size_t kPanelWidth = 64;
constexpr const char* kSample = "lu_sample.bin";
constexpr int kSetups = 3;
constexpr std::size_t kColdCycles = 61;
constexpr double kRoundsPerSecond = 0.8;  ///< about 1.2 s per round

struct ReplayState {
  std::filesystem::path dir;
  std::unique_ptr<ManagedFileSystem> fs;
  std::vector<std::byte> model;  ///< what the sample file must hold
  clio::trace::TraceFile schedule;
};

struct RoundOut {
  RoundStats stats;
  std::vector<double> latencies_ms;  ///< one per read/write record
};

/// Times one call into the io layer: adds its duration to `busy_ns` and
/// returns it.
template <typename F>
std::int64_t timed(SpanName name, std::int64_t& busy_ns, F&& call) {
  const std::int64_t t0 = now_ns();
  {
    Tracer::Span span(name);
    call();
  }
  const std::int64_t dt = now_ns() - t0;
  busy_ns += dt;
  return dt;
}

/// Replays the whole schedule once.  `round` keys the write payloads.
RoundOut replay(ReplayState& st, const Options& opt, std::size_t round,
                RunResult& result) {
  RoundOut out;
  std::int64_t busy_ns = 0;
  Tracer::Span round_span(SpanName::kRound, round);
  ManagedFile file;
  std::vector<std::byte> buf;
  const auto& records = st.schedule.records;
  for (std::size_t r = 0; r < records.size(); ++r) {
    const auto& rec = records[r];
    const std::string op = "replay_lu round " + std::to_string(round) +
                           " record " + std::to_string(r);
    try {
      switch (rec.op) {
        case TraceOp::kOpen:
          timed(SpanName::kIoOpen, busy_ns, [&] {
            file = st.fs->open(kSample, OpenMode::kReadWrite);
          });
          break;
        case TraceOp::kSeek:
          timed(SpanName::kIoSeek, busy_ns, [&] { file.seek(rec.offset); });
          break;
        case TraceOp::kRead: {
          const auto len = static_cast<std::size_t>(rec.length);
          buf.resize(len);
          std::size_t got = 0;
          const auto dt = timed(SpanName::kIoRead, busy_ns,
                                [&] { got = file.read(buf); });
          result.attempted();
          out.latencies_ms.push_back(static_cast<double>(dt) / 1e6);
          out.stats.ops += 1;
          out.stats.bytes += static_cast<double>(len);
          result.check(got == len &&
                           std::memcmp(buf.data(),
                                       st.model.data() + rec.offset, len) == 0,
                       op + " (read " + std::to_string(len) + " B at " +
                           std::to_string(rec.offset) + ")",
                       "bytes differ from the shadow model");
          break;
        }
        case TraceOp::kWrite: {
          const auto len = static_cast<std::size_t>(rec.length);
          buf.resize(len);
          fill_bytes(opt.seed, mix_key(round, r, 0x77), buf);
          std::size_t wrote = 0;
          const auto dt = timed(SpanName::kIoWrite, busy_ns,
                                [&] { wrote = file.write(buf); });
          result.attempted();
          out.latencies_ms.push_back(static_cast<double>(dt) / 1e6);
          out.stats.ops += 1;
          out.stats.bytes += static_cast<double>(len);
          std::memcpy(st.model.data() + rec.offset, buf.data(), len);
          result.check(wrote == len, op + " (write)",
                       "short write of " + std::to_string(wrote) + " B");
          break;
        }
        case TraceOp::kClose:
          timed(SpanName::kIoClose, busy_ns, [&] { file.close(); });
          break;
        default:
          break;
      }
    } catch (const std::exception& e) {
      result.failed(op, e.what());
    }
  }
  out.stats.busy_s = static_cast<double>(busy_ns) / 1e9;
  return out;
}

void teardown(ReplayState& st) {
  st.fs.reset();
  std::filesystem::remove_all(st.dir);
}

void setup(ReplayState& st, const Options& opt, RunResult& result) {
  std::filesystem::create_directories(st.dir);
  st.fs = std::make_unique<ManagedFileSystem>(
      std::make_unique<clio::io::RealFileStore>(st.dir),
      clio::io::ManagedFsOptions{});
  st.model.resize(kN * kN * sizeof(double));
  fill_bytes(opt.seed, 0x5a3e, st.model);
  {
    // The sample file goes in through the program's own write path.
    ManagedFile file = st.fs->open(kSample, OpenMode::kTruncate);
    constexpr std::size_t kChunk = 1 << 20;
    for (std::size_t off = 0; off < st.model.size(); off += kChunk) {
      const std::size_t n = std::min(kChunk, st.model.size() - off);
      file.write(std::span(st.model.data() + off, n));
    }
    file.close();
  }
  st.schedule = clio::apps::lu::lu_trace_schedule(kN, kPanelWidth, kSample);
  // Warm-up: one full replay, checked like every other.
  replay(st, opt, 0, result);
}

/// Plain POSIX read-back of the sample file, compared with the model.
void verify_on_disk(const ReplayState& st, RunResult& result) {
  const std::filesystem::path path = st.dir / kSample;
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (!result.check(fd >= 0, "replay_lu final read-back", "cannot open")) {
    return;
  }
  std::vector<std::byte> buf(1 << 20);
  std::uint64_t off = 0;
  bool same = true;
  while (same) {
    const ssize_t got = ::pread(fd, buf.data(), buf.size(),
                                static_cast<off_t>(off));
    if (got <= 0) break;
    const auto n = static_cast<std::size_t>(got);
    same = off + n <= st.model.size() &&
           std::memcmp(buf.data(), st.model.data() + off, n) == 0;
    off += n;
  }
  ::close(fd);
  result.check(same && off == st.model.size(), "replay_lu final read-back",
               "file on disk differs from the shadow model at or before byte " +
                   std::to_string(off));
}


/// Cold cycle `c`: drop the pool, then time the first read record, a read
/// of panel 7c mod panels (a fixed spread of offsets and sizes).  Returns
/// the read's latency in ms; adds the close's latency to `close_us`.
double cold_cycle(ReplayState& st, std::size_t c, RunResult& result,
                  std::vector<double>& close_us) {
  const std::size_t panels = (kN + kPanelWidth - 1) / kPanelWidth;
  const std::size_t p = (7 * c) % panels;
  const std::uint64_t off =
      static_cast<std::uint64_t>(p) * kPanelWidth * kN * sizeof(double);
  const std::size_t len =
      std::min(kPanelWidth, kN - p * kPanelWidth) * kN * sizeof(double);
  st.fs->drop_caches();
  ManagedFile file = st.fs->open(kSample, OpenMode::kReadWrite);
  file.seek(off);
  std::vector<std::byte> buf(len);
  const std::int64_t t0 = now_ns();
  const std::size_t got = file.read(buf);
  const double ms = static_cast<double>(now_ns() - t0) / 1e6;
  result.attempted();
  result.check(got == len &&
                   std::memcmp(buf.data(), st.model.data() + off, len) == 0,
               "replay_lu cold cycle " + std::to_string(c),
               "bytes differ from the shadow model");
  const std::int64_t t1 = now_ns();
  file.close();
  close_us.push_back(static_cast<double>(now_ns() - t1) / 1e3);
  return ms;
}

}  // namespace

void run_replay_lu(const Options& opt, RunResult& result) {
  pin_to_last_cpu();
  ReplayState st;
  st.dir = opt.workdir / "lu";
  const Setup setup_spec{kSetups, [&] { setup(st, opt, result); },
                         [&] { teardown(st); }};

  // The cold cycles run between rounds, a few after each, so that their
  // median spans the whole run like the rounds do; bunched into a phase of
  // their own at the end, they caught whatever state the host was in for
  // that fraction of a second.  A replay starts on panels the pool no
  // longer holds anyway, so the dropped pool barely changes the next round.
  const std::size_t round_total = round_count(opt, kRoundsPerSecond);
  std::vector<double> latencies_ms;
  std::vector<double> cold_ms;
  std::vector<double> cold_close_us;  ///< close with the pool nearly empty
  clio::io::PoolStats pool{};         ///< summed over the timed rounds
  const auto one_round = [&](std::size_t i) {
    const clio::io::PoolStats before = st.fs->pool().stats();
    RoundOut out = replay(st, opt, i + 1, result);
    pool_add(pool, pool_delta(before, st.fs->pool().stats()));
    latencies_ms.insert(latencies_ms.end(), out.latencies_ms.begin(),
                        out.latencies_ms.end());
    for (std::size_t c = i * kColdCycles / round_total;
         c < (i + 1) * kColdCycles / round_total; ++c) {
      try {
        cold_ms.push_back(cold_cycle(st, c, result, cold_close_us));
      } catch (const std::exception& e) {
        result.failed("replay_lu cold cycle " + std::to_string(c), e.what());
      }
    }
    return out.stats;
  };
  double setup_s = 0.0;
  const auto rounds =
      run_rounds(opt, kRoundsPerSecond, setup_spec, setup_s, one_round);
  st.fs->drop_caches();
  verify_on_disk(st, result);

  if (!opt.trace) {
    report_end_to_end(result, setup_s, rounds, latencies_ms, cold_ms);
  } else {
    const Tracer& tracer = Tracer::instance();
    result.layer("io.read_us_p50",
                 median(tracer.durations_ns(SpanName::kIoRead)) / 1e3, "us");
    result.layer("io.write_us_p50",
                 median(tracer.durations_ns(SpanName::kIoWrite)) / 1e3, "us");
    result.layer("io.close_us_p50",
                 median(tracer.durations_ns(SpanName::kIoClose)) / 1e3, "us");
    result.layer("io.close_us_mean_cold",
                 sum(cold_close_us) /
                     static_cast<double>(std::max<std::size_t>(
                         1, cold_close_us.size())),
                 "us");
    std::uint64_t ops = 0;
    double bytes = 0.0;
    for (const RoundStats& r : rounds) {
      ops += r.ops;
      bytes += r.bytes;
    }
    report_pool_layer(result, pool, ops, bytes, st.fs->pool().page_size());
    report_trace_layer(result, rounds);
  }
  teardown(st);
}

}  // namespace perfbench
