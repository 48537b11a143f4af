#include "common.hpp"

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <stdexcept>

namespace perfbench {

// ------------------------------------------------------------ result ----

void RunResult::attempted(std::uint64_t n) {
  std::lock_guard<std::mutex> lock(mutex_);
  attempted_ += n;
}

void RunResult::failed(const std::string& op, const std::string& why) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (failed_++ == 0) {
    std::cerr << "perfbench: operation failed: " << op << ": " << why << "\n";
  }
}

void RunResult::mismatch(const std::string& op, const std::string& why) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (mismatches_++ == 0) {
    std::cerr << "perfbench: check failed: " << op << ": " << why << "\n";
  }
}

bool RunResult::correct() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return mismatches_ == 0;
}

std::uint64_t RunResult::attempted_ops() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return attempted_;
}

std::uint64_t RunResult::failed_ops() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return failed_;
}

void RunResult::end_to_end(std::string name, double value, std::string unit) {
  std::lock_guard<std::mutex> lock(mutex_);
  e2e_.push_back({std::move(name), value, std::move(unit)});
}

void RunResult::layer(std::string name, double value, std::string unit) {
  std::lock_guard<std::mutex> lock(mutex_);
  layer_.push_back({std::move(name), value, std::move(unit)});
}

// ------------------------------------------------------------ inputs ----

namespace {

std::uint64_t splitmix(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

std::uint64_t mix_key(std::uint64_t a, std::uint64_t b, std::uint64_t c) {
  std::uint64_t state = a;
  std::uint64_t k = splitmix(state);
  state ^= b + k;
  k = splitmix(state);
  state ^= c + k;
  return splitmix(state);
}

void fill_bytes(std::uint64_t seed, std::uint64_t stream,
                std::span<std::byte> out) {
  std::uint64_t state = mix_key(seed, stream, 0x62656e6368ULL);
  std::size_t i = 0;
  for (; i + 8 <= out.size(); i += 8) {
    const std::uint64_t w = splitmix(state);
    std::memcpy(out.data() + i, &w, 8);
  }
  if (i < out.size()) {
    const std::uint64_t w = splitmix(state);
    std::memcpy(out.data() + i, &w, out.size() - i);
  }
}

std::vector<std::byte> make_bytes(std::uint64_t seed, std::uint64_t stream,
                                  std::size_t n) {
  std::vector<std::byte> out(n);
  fill_bytes(seed, stream, out);
  return out;
}

std::vector<std::size_t> size_ladder(std::size_t count, std::size_t lo,
                                     std::size_t hi, std::size_t align) {
  std::vector<std::size_t> sizes;
  sizes.reserve(count);
  const double ratio =
      count > 1 ? std::pow(static_cast<double>(hi) / static_cast<double>(lo),
                           1.0 / static_cast<double>(count - 1))
                : 1.0;
  double s = static_cast<double>(lo);
  for (std::size_t i = 0; i < count; ++i, s *= ratio) {
    const auto raw = static_cast<std::size_t>(s);
    sizes.push_back(std::max(align, raw - raw % align));
  }
  return sizes;
}

// ------------------------------------------------------------- stats ----

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return s;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double current_rss_mb() {
  std::ifstream statm("/proc/self/statm");
  long pages = 0;
  long resident = 0;
  statm >> pages >> resident;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

void pin_to_last_cpu() {
  const long nproc = std::max(1L, sysconf(_SC_NPROCESSORS_ONLN));
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(static_cast<int>(nproc - 1), &set);
  pthread_setaffinity_np(pthread_self(), sizeof set, &set);
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void check_rss(const std::string& where) {
  const double mb = current_rss_mb();
  if (mb > kRssLimitMb) {
    throw std::runtime_error("resident memory reached " + std::to_string(mb) +
                             " MiB after " + where);
  }
}

// ------------------------------------------------------------ tracing ---

const char* span_name(SpanName name) {
  static constexpr std::array<const char*, kSpanNameCount> kNames = {
      "bench.round", "io.open",    "io.seek",    "io.read",
      "io.write",    "io.close",   "vm.bitap",   "vm.dmine",
      "apps.bitap",  "apps.dmine", "net.get",    "net.post"};
  return kNames.at(static_cast<std::size_t>(name));
}

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

TraceBuffer* Tracer::thread_buffer() {
  thread_local TraceBuffer* buffer = nullptr;
  if (buffer == nullptr) {
    std::lock_guard<std::mutex> lock(mutex_);
    buffers_.push_back(std::make_unique<TraceBuffer>());
    buffer = buffers_.back().get();
  }
  return buffer;
}

Tracer::Span::Span(SpanName name, std::uint64_t trace_id) {
  Tracer& tracer = Tracer::instance();
  if (!tracer.enabled()) return;
  buffer_ = tracer.thread_buffer();
  SpanRecord rec;
  rec.name = name;
  rec.parent = buffer_->open;
  rec.trace_id = rec.parent == SpanRecord::kNoParent
                     ? trace_id
                     : buffer_->records[rec.parent].trace_id;
  index_ = static_cast<std::uint32_t>(buffer_->records.size());
  buffer_->open = index_;
  rec.start_ns = now_ns();
  buffer_->records.push_back(rec);
}

Tracer::Span::~Span() {
  if (buffer_ == nullptr) return;
  SpanRecord& rec = buffer_->records[index_];
  rec.end_ns = now_ns();
  buffer_->open = rec.parent;
}

std::vector<std::vector<std::int64_t>> Tracer::self_times() const {
  std::vector<std::vector<std::int64_t>> out;
  for (const auto& buffer : buffers_) {
    std::vector<std::int64_t> self(buffer->records.size());
    for (std::size_t i = 0; i < buffer->records.size(); ++i) {
      const SpanRecord& r = buffer->records[i];
      self[i] += r.end_ns - r.start_ns;
      if (r.parent != SpanRecord::kNoParent) {
        self[r.parent] -= r.end_ns - r.start_ns;
      }
    }
    out.push_back(std::move(self));
  }
  return out;
}

std::vector<double> Tracer::durations_ns(SpanName name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> out;
  for (const auto& buffer : buffers_) {
    for (const SpanRecord& r : buffer->records) {
      if (r.name == name) {
        out.push_back(static_cast<double>(r.end_ns - r.start_ns));
      }
    }
  }
  return out;
}

double Tracer::self_ns(SpanName name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto self = self_times();
  double total = 0.0;
  for (std::size_t b = 0; b < buffers_.size(); ++b) {
    for (std::size_t i = 0; i < buffers_[b]->records.size(); ++i) {
      if (buffers_[b]->records[i].name == name) {
        total += static_cast<double>(self[b][i]);
      }
    }
  }
  return total;
}

double Tracer::total_ns(SpanName name) const { return sum(durations_ns(name)); }

std::size_t Tracer::span_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t n = 0;
  for (const auto& buffer : buffers_) n += buffer->records.size();
  return n;
}

bool Tracer::dump(const std::filesystem::path& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::error_code ec;
  if (path.has_parent_path()) {
    std::filesystem::create_directories(path.parent_path(), ec);
  }
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << "trace_id,span,parent,name,start_ns,end_ns,self_ns\n";
  const auto self = self_times();
  for (std::size_t b = 0; b < buffers_.size(); ++b) {
    const auto& records = buffers_[b]->records;
    for (std::size_t i = 0; i < records.size(); ++i) {
      const SpanRecord& r = records[i];
      out << r.trace_id << ',' << b << ':' << i << ',';
      if (r.parent != SpanRecord::kNoParent) out << b << ':' << r.parent;
      out << ',' << span_name(r.name) << ',' << r.start_ns << ',' << r.end_ns
          << ',' << self[b][i] << '\n';
    }
  }
  return static_cast<bool>(out);
}

// ------------------------------------------------------------- rounds ---

std::size_t round_count(const Options& opt, double rounds_per_second) {
  return std::max<std::size_t>(
      4, static_cast<std::size_t>(std::llround(opt.seconds * rounds_per_second)));
}

std::vector<RoundStats> run_rounds(
    const Options& opt, double rounds_per_second, const Setup& setup,
    double& setup_s,
    const std::function<RoundStats(std::size_t round)>& round) {
  const std::size_t count = round_count(opt, rounds_per_second);
  const auto repeats = static_cast<std::size_t>(std::max(1, setup.repeats));
  std::vector<double> setup_secs;
  std::vector<RoundStats> rounds;
  for (std::size_t i = 0; i < count; ++i) {
    // Set-up k runs before round k * count / repeats.
    while (setup_secs.size() < repeats &&
           setup_secs.size() * count / repeats <= i) {
      if (!setup_secs.empty()) setup.teardown();
      const std::int64_t t0 = now_ns();
      setup.setup();
      setup_secs.push_back(static_cast<double>(now_ns() - t0) / 1e9);
      check_rss("set-up " + std::to_string(setup_secs.size()));
    }
    const bool traced = opt.trace && i % 2 == 0;
    Tracer::instance().set_enabled(traced);
    RoundStats r = round(i);
    Tracer::instance().set_enabled(false);
    r.traced = traced;
    rounds.push_back(r);
    check_rss("round " + std::to_string(i + 1));
  }
  setup_s = median(setup_secs);
  return rounds;
}

namespace {

std::vector<double> round_rates(const std::vector<RoundStats>& rounds,
                                bool bytes, int traced_filter) {
  std::vector<double> rates;
  for (const RoundStats& r : rounds) {
    if (traced_filter >= 0 && r.traced != (traced_filter == 1)) continue;
    if (r.busy_s <= 0.0) continue;
    rates.push_back(bytes ? r.bytes / 1e6 / r.busy_s
                          : static_cast<double>(r.ops) / r.busy_s);
  }
  return rates;
}

}  // namespace

double ops_per_s(const std::vector<RoundStats>& rounds) {
  return median(round_rates(rounds, false, -1));
}

double mb_per_s(const std::vector<RoundStats>& rounds) {
  return median(round_rates(rounds, true, -1));
}

void report_end_to_end(RunResult& result, double setup_s,
                       const std::vector<RoundStats>& rounds,
                       const std::vector<double>& latencies_ms,
                       const std::vector<double>& cold_ms) {
  result.end_to_end("setup_s", setup_s, "s");
  result.end_to_end("peak_rss_mb", peak_rss_mb(), "MB");
  result.end_to_end("ops_per_s", ops_per_s(rounds), "1/s");
  result.end_to_end("mb_per_s", mb_per_s(rounds), "MB/s");
  result.end_to_end("p50_ms", quantile(latencies_ms, 0.5), "ms");
  result.end_to_end("p99_ms", quantile(latencies_ms, 0.99), "ms");
  result.end_to_end("cold_first_ms", median(cold_ms), "ms");
  std::printf("# ops: %zu timed in %zu rounds, %zu cold cycles\n",
              latencies_ms.size(), rounds.size(), cold_ms.size());
  std::printf("# cold_first_ms p10 %.4f p50 %.4f p90 %.4f\n",
              quantile(cold_ms, 0.1), quantile(cold_ms, 0.5),
              quantile(cold_ms, 0.9));
  std::printf("# ops/s by round:");
  for (const double rate : round_rates(rounds, false, -1)) {
    std::printf(" %.0f", rate);
  }
  std::printf("\n");
}

void report_trace_layer(RunResult& result,
                        const std::vector<RoundStats>& rounds) {
  const double untraced = median(round_rates(rounds, false, 0));
  const double traced = median(round_rates(rounds, false, 1));
  result.layer("trace.overhead_pct",
               traced > 0.0 ? (untraced / traced - 1.0) * 100.0 : 0.0, "%");
  const Tracer& tracer = Tracer::instance();
  const double root = tracer.total_ns(SpanName::kRound);
  result.layer("trace.bench_self_share",
               root > 0.0 ? tracer.self_ns(SpanName::kRound) / root : 0.0,
               "ratio");
}

}  // namespace perfbench
