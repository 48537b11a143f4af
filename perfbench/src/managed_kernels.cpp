// managed_kernels: managed bytecode calls of the bitap (pgrep) and Apriori
// candidate-counting (dmine) kernels over many small inputs of varied sizes
// that all fit in the buffer pool, so vm dispatch does nearly all the work
// and io serves warm hits only.  Every input also runs through its native
// twin (apps::pgrep::BitapStreamScanner, apps::dmine::count_support) for
// the managed-over-native ratio.  Match counts are checked against a naive
// substring count and supports against a naive nested-loop count, both
// computed by the benchmark; managed and native results must agree.

#include <algorithm>
#include <memory>
#include <string>
#include <string_view>

#include "apps/dmine/candidate_count.hpp"
#include "apps/pgrep/bitap.hpp"
#include "common.hpp"
#include "io/file_store.hpp"
#include "io/managed_file.hpp"
#include "layers.hpp"
#include "vm/assembler.hpp"
#include "vm/kernels.hpp"
#include "vm/runtime.hpp"

namespace perfbench {
namespace {

using clio::io::ManagedFileSystem;
using clio::io::OpenMode;
namespace vm = clio::vm;

constexpr std::size_t kInputs = 48;
constexpr std::size_t kRecord = 16;  ///< fixed basket record (dmine)
constexpr std::size_t kCandidates = 12;
constexpr std::size_t kK = 2;
constexpr std::size_t kItems = 48;
constexpr std::size_t kPatternLen = 5;
constexpr std::int64_t kChunk = 16 * 1024;  ///< multiple of kRecord
constexpr int kSetups = 5;
constexpr std::size_t kColdCycles = 81;
constexpr double kRoundsPerSecond = 3.4;  ///< about 0.3 s per round

enum class Kernel { kBitap, kDmine };

struct Input {
  Kernel kernel;
  std::string name;
  std::size_t bytes = 0;
  std::int64_t expected = 0;  ///< naive count, computed by the benchmark
  std::vector<vm::Value> args;
};

struct KernelState {
  std::filesystem::path dir;
  std::unique_ptr<ManagedFileSystem> fs;
  std::unique_ptr<vm::ExecutionEngine> engine;
  std::uint16_t bitap_method = 0;
  std::uint16_t dmine_method = 0;
  std::string pattern;
  std::vector<std::byte> candidates;  ///< kCandidates * kK item ids
  std::vector<Input> inputs;          ///< bitap and dmine, interleaved
};

std::int64_t naive_matches(std::string_view text, std::string_view pattern) {
  std::int64_t n = 0;
  for (std::size_t at = text.find(pattern); at != std::string_view::npos;
       at = text.find(pattern, at + 1)) {
    ++n;
  }
  return n;
}

std::int64_t naive_support(std::span<const std::byte> records,
                           std::span<const std::byte> candidates) {
  std::int64_t support = 0;
  for (std::size_t r = 0; r + kRecord <= records.size(); r += kRecord) {
    const auto count = static_cast<std::size_t>(records[r]);
    for (std::size_t c = 0; c + kK <= candidates.size(); c += kK) {
      bool all = true;
      for (std::size_t j = 0; j < kK && all; ++j) {
        bool found = false;
        for (std::size_t i = 0; i < count; ++i) {
          found = found || records[r + 1 + i] == candidates[c + j];
        }
        all = found;
      }
      support += all ? 1 : 0;
    }
  }
  return support;
}

/// Random text over a four-letter alphabet, so a five-letter pattern
/// matches about once per KiB.
std::string make_text(std::uint64_t seed, std::uint64_t stream,
                      std::size_t n) {
  const auto raw = make_bytes(seed, stream, n);
  std::string text(n, 'a');
  for (std::size_t i = 0; i < n; ++i) {
    text[i] = "acgt"[static_cast<unsigned>(raw[i]) & 3U];
  }
  return text;
}

/// Fixed 16-byte basket records: count, sorted distinct items < kItems.
std::vector<std::byte> make_baskets(std::uint64_t seed, std::uint64_t stream,
                                    std::size_t bytes) {
  const std::size_t n = bytes / kRecord;
  const auto raw = make_bytes(seed, stream, n * kRecord * 2);
  std::vector<std::byte> out(n * kRecord);
  for (std::size_t r = 0; r < n; ++r) {
    const std::byte* src = raw.data() + r * kRecord * 2;
    const std::size_t want = 3 + static_cast<std::size_t>(src[0]) % 8;
    std::vector<std::uint8_t> items;
    for (std::size_t i = 1; i < kRecord * 2 && items.size() < want; ++i) {
      const auto item =
          static_cast<std::uint8_t>(static_cast<unsigned>(src[i]) % kItems);
      if (std::find(items.begin(), items.end(), item) == items.end()) {
        items.push_back(item);
      }
    }
    std::sort(items.begin(), items.end());
    out[r * kRecord] = static_cast<std::byte>(items.size());
    for (std::size_t i = 0; i < items.size(); ++i) {
      out[r * kRecord + 1 + i] = static_cast<std::byte>(items[i]);
    }
  }
  return out;
}

void write_through(ManagedFileSystem& fs, const std::string& name,
                   std::span<const std::byte> data) {
  auto file = fs.open(name, OpenMode::kTruncate);
  file.write(data);
  file.close();
}

/// Sum of the io layer's own op timings (open..seek), in ns.
double io_ns(const ManagedFileSystem& fs) {
  double ms = 0.0;
  for (std::size_t op = 0; op < clio::io::kIoTraceOpCount; ++op) {
    const auto snap = fs.stats().op_snapshot(static_cast<clio::io::IoOp>(op));
    ms += snap.mean_ms * static_cast<double>(snap.count);
  }
  return ms * 1e6;
}

struct Totals {
  double managed_ns[2] = {0, 0};
  double native_ns[2] = {0, 0};
  double managed_bytes = 0;
  double native_bytes = 0;
  double io_ns = 0;
  double insns = 0;
};

class KernelBench {
 public:
  KernelBench(const Options& opt, RunResult& result)
      : opt_(opt), result_(result) {
    st_.dir = opt.workdir / "kernels";
  }

  void teardown() {
    st_.engine.reset();
    st_.fs.reset();
    std::filesystem::remove_all(st_.dir);
  }

  void setup() {
    std::filesystem::create_directories(st_.dir);
    st_.fs = std::make_unique<ManagedFileSystem>(
        std::make_unique<clio::io::RealFileStore>(st_.dir),
        clio::io::ManagedFsOptions{});
    const std::string source =
        std::string(vm::kernels::kBitapSource) + vm::kernels::kDmineSource;
    st_.engine = std::make_unique<vm::ExecutionEngine>(
        vm::assemble(source), vm::EngineOptions{}, st_.fs.get());
    st_.bitap_method = st_.engine->method_index("bitap_file");
    st_.dmine_method = st_.engine->method_index("dmine_count");

    st_.pattern = make_text(opt_.seed, 0x9a77, kPatternLen);
    const auto raw = make_bytes(opt_.seed, 0xca4d, kCandidates * 2);
    st_.candidates.clear();
    for (std::size_t c = 0; c < kCandidates; ++c) {
      const auto a = static_cast<unsigned>(raw[2 * c]) % kItems;
      auto b = static_cast<unsigned>(raw[2 * c + 1]) % kItems;
      if (b == a) b = (a + 1) % kItems;
      st_.candidates.push_back(static_cast<std::byte>(std::min(a, b)));
      st_.candidates.push_back(static_cast<std::byte>(std::max(a, b)));
    }
    const vm::Value masks = vm::kernels::bitap_masks(st_.pattern);
    const vm::Value accept = vm::kernels::bitap_accept(st_.pattern);
    const vm::Value packed = vm::kernels::make_buffer(st_.candidates);

    // Fixed size ladders (the seed changes contents, not sizes): text
    // 1 KiB..48 KiB, baskets 256 B..12 KiB, about 1.5 MB in all.
    const auto text_sizes = size_ladder(kInputs, 1024, 48 * 1024);
    const auto basket_sizes = size_ladder(kInputs, 256, 12 * 1024, kRecord);
    st_.inputs.clear();
    for (std::size_t i = 0; i < kInputs; ++i) {
      Input t;
      t.kernel = Kernel::kBitap;
      t.name = "text_" + std::to_string(i) + ".txt";
      const std::string text = make_text(opt_.seed, 100 + i, text_sizes[i]);
      t.bytes = text.size();
      t.expected = naive_matches(text, st_.pattern);
      write_through(*st_.fs, t.name, std::as_bytes(std::span(text)));
      t.args = {vm::kernels::make_string(t.name), masks, accept,
                vm::Value::from_int(kChunk)};
      st_.inputs.push_back(std::move(t));

      Input d;
      d.kernel = Kernel::kDmine;
      d.name = "baskets_" + std::to_string(i) + ".dat";
      const auto baskets = make_baskets(opt_.seed, 200 + i, basket_sizes[i]);
      d.bytes = baskets.size();
      d.expected = naive_support(baskets, st_.candidates);
      write_through(*st_.fs, d.name, baskets);
      d.args = {vm::kernels::make_string(d.name), packed,
                vm::Value::from_int(static_cast<std::int64_t>(kK)),
                vm::Value::from_int(kChunk)};
      st_.inputs.push_back(std::move(d));
    }
    // Warm-up: one full round compiles both methods and warms the pool.
    Totals ignored;
    std::vector<double> lat;
    round(0, ignored, lat);
  }

  /// One pass over every input, managed then native.
  RoundStats round(std::size_t index, Totals& totals,
                   std::vector<double>& latencies_ms) {
    RoundStats stats;
    std::int64_t busy_ns = 0;
    Tracer::Span round_span(SpanName::kRound, index);
    for (std::size_t i = 0; i < st_.inputs.size(); ++i) {
      const Input& in = st_.inputs[i];
      const std::string op = "managed_kernels round " + std::to_string(index) +
                             " " + in.name;
      const int k = in.kernel == Kernel::kBitap ? 0 : 1;
      try {
        const double io_before = opt_.trace ? io_ns(*st_.fs) : 0.0;
        const auto insns_before = st_.engine->instructions_executed();
        std::int64_t got = 0;
        const std::int64_t t0 = now_ns();
        {
          Tracer::Span span(k == 0 ? SpanName::kVmBitap : SpanName::kVmDmine);
          got = st_.engine
                    ->call_index(k == 0 ? st_.bitap_method : st_.dmine_method,
                                 in.args)
                    .as_int();
        }
        const std::int64_t dt = now_ns() - t0;
        busy_ns += dt;
        result_.attempted();
        stats.ops += 1;
        stats.bytes += static_cast<double>(in.bytes);
        latencies_ms.push_back(static_cast<double>(dt) / 1e6);
        totals.managed_ns[k] += static_cast<double>(dt);
        totals.managed_bytes += static_cast<double>(in.bytes);
        totals.insns += static_cast<double>(
            st_.engine->instructions_executed() - insns_before);
        if (opt_.trace) totals.io_ns += io_ns(*st_.fs) - io_before;
        result_.check(got == in.expected, op + " (managed)",
                      "result " + std::to_string(got) + ", naive count " +
                          std::to_string(in.expected));
      } catch (const std::exception& e) {
        result_.failed(op + " (managed)", e.what());
      }
      try {
        const std::int64_t t0 = now_ns();
        const std::int64_t got = native(in);
        totals.native_ns[k] += static_cast<double>(now_ns() - t0);
        totals.native_bytes += static_cast<double>(in.bytes);
        result_.check(got == in.expected, op + " (native twin)",
                      "result " + std::to_string(got) + ", naive count " +
                          std::to_string(in.expected));
      } catch (const std::exception& e) {
        result_.failed(op + " (native twin)", e.what());
      }
    }
    stats.busy_s = static_cast<double>(busy_ns) / 1e9;
    return stats;
  }

  /// Cold start: drop the pool and the JIT cache, then time the first
  /// managed call.  Cycles alternate kernels over four mid-ladder inputs.
  std::vector<double> cold_phase() {
    std::vector<double> cold_ms;
    for (std::size_t c = 0; c < kColdCycles; ++c) {
      const Input& in = st_.inputs[kInputs + (c % 4)];
      const std::string op = "managed_kernels cold cycle " + std::to_string(c);
      try {
        st_.fs->drop_caches();
        st_.engine->flush_jit_cache();
        const std::int64_t t0 = now_ns();
        const std::int64_t got =
            st_.engine
                ->call_index(in.kernel == Kernel::kBitap ? st_.bitap_method
                                                         : st_.dmine_method,
                             in.args)
                .as_int();
        cold_ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
        result_.attempted();
        result_.check(got == in.expected, op, "wrong result");
      } catch (const std::exception& e) {
        result_.failed(op, e.what());
      }
    }
    return cold_ms;
  }

  KernelState& state() { return st_; }

 private:
  std::int64_t native(const Input& in) {
    auto file = st_.fs->open(in.name, OpenMode::kRead);
    std::vector<std::byte> chunk(static_cast<std::size_t>(kChunk));
    std::int64_t total = 0;
    if (in.kernel == Kernel::kBitap) {
      Tracer::Span span(SpanName::kAppsBitap);
      const clio::apps::pgrep::Bitap matcher(st_.pattern, 0);
      clio::apps::pgrep::BitapStreamScanner scanner(matcher);
      while (const std::size_t got = file.read(chunk)) {
        scanner.feed(std::string_view(
            reinterpret_cast<const char*>(chunk.data()), got));
      }
      total = static_cast<std::int64_t>(scanner.matches());
    } else {
      Tracer::Span span(SpanName::kAppsDmine);
      while (const std::size_t got = file.read(chunk)) {
        total += static_cast<std::int64_t>(clio::apps::dmine::count_support(
            std::span(chunk.data(), got), st_.candidates, kK));
      }
    }
    file.close();
    return total;
  }

  const Options& opt_;
  RunResult& result_;
  KernelState st_;
};

}  // namespace

void run_managed_kernels(const Options& opt, RunResult& result) {
  pin_to_last_cpu();
  KernelBench bench(opt, result);
  KernelState& st = bench.state();
  // IoStats timings of the rounds, gathered from every set-up's file system
  // before it goes.  The kernels only read: writes stay at 0 unless a
  // timed call writes.
  MergedTimer reads;
  MergedTimer writes;
  MergedTimer closes;
  const auto collect_io = [&] {
    const auto& io = st.fs->stats();
    reads.add(io.op_histogram(clio::io::IoOp::kRead).snapshot());
    writes.add(io.op_histogram(clio::io::IoOp::kWrite).snapshot());
    closes.add(io.op_histogram(clio::io::IoOp::kClose).snapshot());
  };
  const Setup setup_spec{kSetups,
                         [&] {
                           bench.setup();
                           st.fs->stats().reset();
                         },
                         [&] {
                           collect_io();
                           bench.teardown();
                         }};

  Totals totals;
  std::vector<double> latencies_ms;
  clio::io::PoolStats pool{};  ///< summed over the timed rounds
  const auto one_round = [&](std::size_t i) {
    const auto before = st.fs->pool().stats();
    const RoundStats stats = bench.round(i + 1, totals, latencies_ms);
    pool_add(pool, pool_delta(before, st.fs->pool().stats()));
    return stats;
  };
  double setup_s = 0.0;
  const auto rounds =
      run_rounds(opt, kRoundsPerSecond, setup_spec, setup_s, one_round);
  collect_io();
  const auto& io_stats = st.fs->stats();
  st.fs->stats().reset();
  const std::vector<double> cold_ms = bench.cold_phase();
  const double cold_close_us =
      io_stats.op_snapshot(clio::io::IoOp::kClose).mean_ms * 1e3;

  if (!opt.trace) {
    report_end_to_end(result, setup_s, rounds, latencies_ms, cold_ms);
  } else {
    const Tracer& tracer = Tracer::instance();
    const double managed_ns = totals.managed_ns[0] + totals.managed_ns[1];
    const double native_ns = totals.native_ns[0] + totals.native_ns[1];
    result.layer("io.read_us_p50", reads.p50_us(), "us");
    result.layer("io.write_us_p50", writes.p50_us(), "us");
    result.layer("io.close_us_p50", closes.p50_us(), "us");
    result.layer("io.close_us_mean_cold", cold_close_us, "us");
    std::uint64_t ops = 0;
    for (const RoundStats& r : rounds) ops += r.ops;
    report_pool_layer(result, pool, ops, totals.managed_bytes,
                      st.fs->pool().page_size());
    result.layer("vm.insns_per_byte", totals.insns / totals.managed_bytes,
                 "insns/B");
    result.layer("vm.ns_per_insn", (managed_ns - totals.io_ns) / totals.insns,
                 "ns");
    result.layer("vm.bitap_call_us_p50",
                 median(tracer.durations_ns(SpanName::kVmBitap)) / 1e3, "us");
    result.layer("vm.dmine_call_us_p50",
                 median(tracer.durations_ns(SpanName::kVmDmine)) / 1e3, "us");
    result.layer("vm.io_share", totals.io_ns / managed_ns, "ratio");
    const auto& jit = st.engine->jit_stats();
    result.layer("vm.jit_compilations", static_cast<double>(jit.compilations),
                 "count");
    result.layer("vm.jit_compile_ms",
                 jit.compilations > 0
                     ? jit.total_compile_ms /
                           static_cast<double>(jit.compilations)
                     : 0.0,
                 "ms");
    result.layer("apps.native_mb_per_s",
                 totals.native_bytes / 1e6 / (native_ns / 1e9), "MB/s");
    result.layer("vm.managed_over_native", managed_ns / native_ns, "ratio");
    result.layer("vm.bitap_managed_over_native",
                 totals.managed_ns[0] / totals.native_ns[0], "ratio");
    result.layer("vm.dmine_managed_over_native",
                 totals.managed_ns[1] / totals.native_ns[1], "ratio");
    report_trace_layer(result, rounds);
  }
  bench.teardown();
}

}  // namespace perfbench
