#pragma once

// Shared pieces of the perfbench binary: run options, the result each
// workload hands back, the seeded input generator, small order-statistics
// helpers, and the in-memory span recorder used by traced runs.

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

namespace perfbench {

/// Command-line options of one run.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< sets the number of rounds (run_rounds)
  bool trace = false;     ///< traced run: print per-layer metrics
  std::filesystem::path workdir;    ///< working files (created, then removed)
  std::filesystem::path trace_out;  ///< where the span dump goes (optional)
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Correctness accounting and metrics of one run.  `failed` counts
/// operations that raised an error or answered with an error status;
/// `mismatches` counts outputs that differ from the benchmark's own model.
/// Either names its first operation on stderr.
class RunResult {
 public:
  void attempted(std::uint64_t n = 1);
  void failed(const std::string& op, const std::string& why);
  void mismatch(const std::string& op, const std::string& why);
  /// Records a mismatch unless `ok`; returns `ok`.
  bool check(bool ok, const std::string& op, const std::string& why) {
    if (!ok) mismatch(op, why);
    return ok;
  }

  void end_to_end(std::string name, double value, std::string unit);
  void layer(std::string name, double value, std::string unit);

  [[nodiscard]] bool correct() const;
  [[nodiscard]] std::uint64_t attempted_ops() const;
  [[nodiscard]] std::uint64_t failed_ops() const;
  [[nodiscard]] const std::vector<Metric>& end_to_end_metrics() const {
    return e2e_;
  }
  [[nodiscard]] const std::vector<Metric>& layer_metrics() const {
    return layer_;
  }

 private:
  mutable std::mutex mutex_;  ///< client threads report concurrently
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t mismatches_ = 0;
  std::vector<Metric> e2e_;
  std::vector<Metric> layer_;
};

// ------------------------------------------------------------ inputs ----

/// Deterministic byte stream keyed by (seed, stream): the same key always
/// yields the same bytes.  Every input the program sees comes from here.
void fill_bytes(std::uint64_t seed, std::uint64_t stream,
                std::span<std::byte> out);
[[nodiscard]] std::vector<std::byte> make_bytes(std::uint64_t seed,
                                                std::uint64_t stream,
                                                std::size_t n);
/// Mixes several words into one 64-bit key (SplitMix64 finalizer chain).
[[nodiscard]] std::uint64_t mix_key(std::uint64_t a, std::uint64_t b,
                                    std::uint64_t c = 0);

/// `count` sizes spaced geometrically over [lo, hi], rounded down to a
/// multiple of `align`.  A fixed ladder rather than random draws, so every
/// seed does the same amount of work and only the contents change.
[[nodiscard]] std::vector<std::size_t> size_ladder(std::size_t count,
                                                   std::size_t lo,
                                                   std::size_t hi,
                                                   std::size_t align = 1);

// ------------------------------------------------------------- stats ----

/// Linear-interpolated quantile (q in [0, 1]) of a sample; 0 when empty.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}
[[nodiscard]] double sum(const std::vector<double>& v);

/// Peak resident set of this process so far, in MiB.
[[nodiscard]] double peak_rss_mb();
/// Current resident set of this process, in MiB.
[[nodiscard]] double current_rss_mb();

/// Resident-memory ceiling of a run.  A leaking program stops the run with
/// an error instead of exhausting the host's memory.
inline constexpr double kRssLimitMb = 2048.0;
/// Throws when the process is resident past kRssLimitMb.
void check_rss(const std::string& where);

/// Pins the calling thread to the last online CPU.  The single-threaded
/// workloads call this first: left to migrate, their ops/s ranged almost
/// twice as wide from run to run.
void pin_to_last_cpu();

/// Monotonic clock in nanoseconds.
[[nodiscard]] std::int64_t now_ns();

/// How a workload sets up the state its rounds measure.
struct Setup {
  int repeats = 3;                 ///< set-ups per run
  std::function<void()> setup;     ///< timed; ends ready for a round
  std::function<void()> teardown;  ///< untimed; undoes setup
};

// ------------------------------------------------------------ tracing ---

/// Names of the spans the benchmark records around calls into the layers.
enum class SpanName : std::uint8_t {
  kRound,      ///< bench: one round of a workload (root)
  kIoOpen,     ///< io: ManagedFileSystem::open
  kIoSeek,     ///< io: ManagedFile::seek
  kIoRead,     ///< io: ManagedFile::read
  kIoWrite,    ///< io: ManagedFile::write
  kIoClose,    ///< io: ManagedFile::close
  kVmBitap,    ///< vm: ExecutionEngine::call of bitap_file
  kVmDmine,    ///< vm: ExecutionEngine::call of dmine_count
  kAppsBitap,  ///< apps: native bitap scan of the same input
  kAppsDmine,  ///< apps: native candidate count of the same input
  kNetGet,     ///< net: HttpClient::get round trip
  kNetPost,    ///< net: HttpClient::post round trip
};
inline constexpr std::size_t kSpanNameCount = 12;
[[nodiscard]] const char* span_name(SpanName name);

/// One recorded span.  `parent` indexes the same thread's buffer.
struct SpanRecord {
  static constexpr std::uint32_t kNoParent = UINT32_MAX;
  std::uint64_t trace_id = 0;
  std::uint32_t parent = kNoParent;
  SpanName name = SpanName::kRound;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// One thread's spans, in the order they were opened.
struct TraceBuffer {
  std::vector<SpanRecord> records;
  std::uint32_t open = SpanRecord::kNoParent;  ///< innermost open span
};

/// In-memory span recorder.  Each thread appends to its own buffer, so a
/// span costs two clock reads and a vector push; nothing is written until
/// dump().  Spans nest per thread: a span opened while another is open on
/// the same thread is its child and shares its trace id.  Self time is a
/// span's duration minus the durations of its children.
class Tracer {
 public:
  /// The process-wide recorder (off until enabled).
  static Tracer& instance();

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// RAII span.  A no-op when the tracer is off at construction.
  class Span {
   public:
    explicit Span(SpanName name, std::uint64_t trace_id = 0);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    TraceBuffer* buffer_ = nullptr;
    std::uint32_t index_ = 0;
  };

  /// Durations (ns) of every recorded span with this name.  Call only
  /// after the recording threads have been joined.
  [[nodiscard]] std::vector<double> durations_ns(SpanName name) const;
  /// Summed self time (ns) of every span with this name.
  [[nodiscard]] double self_ns(SpanName name) const;
  [[nodiscard]] double total_ns(SpanName name) const;
  [[nodiscard]] std::size_t span_count() const;

  /// Writes every span as CSV (trace_id, span, parent, name, start_ns,
  /// end_ns, self_ns); returns false when the file cannot be written.
  bool dump(const std::filesystem::path& path) const;

 private:
  TraceBuffer* thread_buffer();
  /// Self time of every span, buffer by buffer (same shape as buffers_).
  [[nodiscard]] std::vector<std::vector<std::int64_t>> self_times() const;

  std::atomic<bool> enabled_{false};
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<TraceBuffer>> buffers_;
};

// ------------------------------------------------------------- rounds ---

/// What one round of a workload did: time the program was busy with the
/// round's operations, the operation count, and the user bytes moved.
struct RoundStats {
  double busy_s = 0.0;
  std::uint64_t ops = 0;
  double bytes = 0.0;
  bool traced = false;
};

/// Runs a fixed number of whole rounds: round_count(), that is
/// `rounds_per_second` * opt.seconds, at least four.  The rate is a
/// per-workload constant chosen so the timed phase lasts about opt.seconds
/// on the reference host (README), so every run does the same work and a
/// faster program is measured in the same state as a slower one.  In a
/// traced run, even-numbered rounds record spans and odd ones do not, so
/// the tracing overhead is measured inside the same run.
///
/// `setup` runs `setup.repeats` times: before the first round, and then
/// spread evenly between rounds, each time after `setup.teardown`.  Its
/// median wall time goes to `setup_s`.  Spread like this, the set-ups span
/// the run the way the rounds do; run back to back before the rounds, they
/// all caught the host in the same few seconds, and setup_s spread across
/// runs two to four times as wide as ops/s.  The rounds after a set-up run
/// on its fresh state.  Calls check_rss() after every set-up and round.
[[nodiscard]] std::size_t round_count(const Options& opt,
                                      double rounds_per_second);
[[nodiscard]] std::vector<RoundStats> run_rounds(
    const Options& opt, double rounds_per_second, const Setup& setup,
    double& setup_s,
    const std::function<RoundStats(std::size_t round)>& round);

/// Median over rounds of ops / busy second and MB / busy second.
[[nodiscard]] double ops_per_s(const std::vector<RoundStats>& rounds);
[[nodiscard]] double mb_per_s(const std::vector<RoundStats>& rounds);

/// Reports the seven end-to-end metrics.  `latencies_ms` holds one sample
/// per timed operation of the whole run; p50 and p99 are its quantiles.
/// `cold_ms` holds one sample per cold cycle.
void report_end_to_end(RunResult& result, double setup_s,
                       const std::vector<RoundStats>& rounds,
                       const std::vector<double>& latencies_ms,
                       const std::vector<double>& cold_ms);

/// Reports trace.overhead_pct (untraced vs traced rounds' ops/s) and
/// trace.bench_self_share (the root spans' self time over their duration).
void report_trace_layer(RunResult& result,
                        const std::vector<RoundStats>& rounds);

// --------------------------------------------------------- workloads ----

void run_replay_lu(const Options& opt, RunResult& result);
void run_managed_kernels(const Options& opt, RunResult& result);
void run_serve_native(const Options& opt, RunResult& result);

}  // namespace perfbench
