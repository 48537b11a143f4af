// serve_native: closed-loop keep-alive GET/POST traffic against
// MiniWebServer with native handlers, from client threads in this process.
// Each client waits for its reply before sending the next request, like the
// paper's web clients.  Clients plus server workers stay at or below nproc.
//
// A round is a timed GET phase, every client at once, then a POST batch
// from one connection.  The POSTs are timed on their own (net.post_us_p50)
// and kept out of the end-to-end figures: each creates a file, and on an
// ext4 working directory, with every 10th request a POST, the median round
// rate of three runs ranged over 24%, against 5% for two runs of GETs
// alone.
//
// The docroot is written through the program's own write path, with sizes
// spanning the page-gather and sendfile tiers plus empty files (the only
// GETs the buffered tier serves with default options), and Zipf(1.0)
// popularity.  Every docroot file is in the pool's dirty-extent map, so
// every close walks the whole pool; warm-up fills the pool first.
//
// Every 200 body must equal the generator's bytes for that file; every
// POST must answer 201, and the posted file, read back from the docroot
// with plain POSIX reads, must equal its payload.  Posted files stay until
// the docroot is removed at the end of the run: unlinking them between
// rounds put file-system journal work into the next round.
//
// The managed request path (ServerOptions::vm_dispatch) is not measured
// here: see perfbench/README.md.

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <unordered_set>

#include "common.hpp"
#include "io/file_store.hpp"
#include "io/managed_file.hpp"
#include "layers.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "obs/span.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using clio::io::ManagedFileSystem;
using clio::io::OpenMode;

constexpr std::size_t kWorkers = 1;  ///< server worker threads
constexpr std::size_t kMaxClients = 2;  ///< client connections
constexpr std::size_t kGetsPerClient = 900;  ///< per round
constexpr std::size_t kPostsPerRound = 20;
constexpr std::size_t kRoundsPerColdSlot = 4;
constexpr std::size_t kColdPerSlot = 7;
constexpr int kSetups = 5;
constexpr double kRoundsPerSecond = 2.5;  ///< about 0.4 s per round

/// A POST the server acknowledged, to be read back after the round.
struct Posted {
  std::string name;
  std::uint64_t stream = 0;
  std::size_t bytes = 0;
};

/// What one client did in one round's GET phase.
struct ClientOut {
  std::vector<double> latencies_ms;
  std::uint64_t get_ok = 0;
  double bytes = 0.0;
};

std::string to_string(const std::vector<std::byte>& bytes) {
  return std::string(reinterpret_cast<const char*>(bytes.data()),
                     bytes.size());
}

class ServeBench {
 public:
  ServeBench(const Options& opt, RunResult& result)
      : opt_(opt), result_(result) {
    docroot_ = opt.workdir / "docroot";
    // 400 page-gather files (2 KiB..128 KiB, about 12 MiB: 0.75x the
    // pool), 8 sendfile files (288 KiB..1 MiB, never cached in the pool), 2
    // empty files, and 4 page-gather files just under the sendfile
    // threshold (232..252 KiB) for the cold cycles, so each cold request
    // loads about 60 pages into the emptied pool.  POSTs fill the rest of
    // the pool, so GETs mostly hit and every close walks a full pool.
    file_sizes_ = size_ladder(400, 2 * 1024, 128 * 1024);
    for (const std::size_t s : size_ladder(8, 288 * 1024, 1024 * 1024)) {
      file_sizes_.push_back(s);
    }
    file_sizes_.push_back(0);
    file_sizes_.push_back(0);
    for (const std::size_t s : size_ladder(4, 232 * 1024, 252 * 1024)) {
      cold_files_.push_back(file_sizes_.size());
      file_sizes_.push_back(s);
    }
    const long nproc = std::max(1L, sysconf(_SC_NPROCESSORS_ONLN));
    clients_ = static_cast<std::size_t>(std::clamp(
        nproc - static_cast<long>(kWorkers), 1L,
        static_cast<long>(kMaxClients)));
    // Popularity rank r maps to file (r * 167) mod F: fixed, seed-free, and
    // spread over the size ladder.
    const std::size_t f = file_sizes_.size();
    for (std::size_t r = 0; r < f; ++r) rank_to_file_.push_back(r * 167 % f);
  }

  ~ServeBench() { teardown(); }
  ServeBench(const ServeBench&) = delete;
  ServeBench& operator=(const ServeBench&) = delete;

  void setup() {
    std::filesystem::create_directories(docroot_);
    fs_ = std::make_unique<ManagedFileSystem>(
        std::make_unique<clio::io::RealFileStore>(docroot_),
        clio::io::ManagedFsOptions{});
    bodies_.clear();
    for (std::size_t i = 0; i < file_sizes_.size(); ++i) {
      const auto bytes = make_bytes(opt_.seed, 1000 + i, file_sizes_[i]);
      auto file = fs_->open(file_name(i), OpenMode::kTruncate);
      file.write(bytes);
      file.close();
      bodies_.push_back(to_string(bytes));
    }
    clio::net::ServerOptions options;
    options.worker_threads = kWorkers;
    server_ = std::make_unique<clio::net::MiniWebServer>(*fs_, options);
    server_->start();
    connect();
    warm_up();
  }

  void teardown() {
    clients_conns_.clear();
    if (server_ != nullptr) server_->stop();
    server_.reset();
    fs_.reset();
    std::error_code ec;
    std::filesystem::remove_all(docroot_, ec);
  }

  /// One round: every client sends kGetsPerClient GETs (the timed part),
  /// then the first connection sends kPostsPerRound POSTs, each timed into
  /// `post_ms` and read back.
  RoundStats round(std::size_t index, std::vector<double>& latencies_ms,
                   std::vector<double>& post_ms, std::uint64_t& get_ok) {
    std::vector<ClientOut> outs(clients_);
    std::vector<std::thread> threads;
    const std::int64_t t0 = now_ns();
    for (std::size_t c = 0; c < clients_; ++c) {
      threads.emplace_back([&, c] { client_round(index, c, outs[c]); });
    }
    for (auto& t : threads) t.join();
    const std::int64_t wall = now_ns() - t0;

    RoundStats stats;
    stats.busy_s = static_cast<double>(wall) / 1e9;
    for (ClientOut& out : outs) {
      stats.ops += out.latencies_ms.size();
      stats.bytes += out.bytes;
      get_ok += out.get_ok;
      latencies_ms.insert(latencies_ms.end(), out.latencies_ms.begin(),
                          out.latencies_ms.end());
    }
    post_batch(index, post_ms);
    return stats;
  }

  /// One cold slot: kColdPerSlot cycles of make_cold() (pool dropped) and
  /// one GET of one of the four largest page-gather files, timed by the
  /// client; then fill_pool(), so the next round starts from a full pool
  /// again.  Adds the cold GETs' close time to `close_ms` / `closes`.
  void cold_slot(std::size_t slot, std::vector<double>& cold_ms,
                 double& close_ms, std::uint64_t& closes) {
    auto& client = *clients_conns_.front();
    for (std::size_t k = 0; k < kColdPerSlot; ++k) {
      const std::size_t c = slot * kColdPerSlot + k;
      const std::size_t f = cold_files_[c % cold_files_.size()];
      const std::string op = "serve_native cold cycle " + std::to_string(c);
      try {
        server_->make_cold();
        const auto before = fs_->stats().op_snapshot(clio::io::IoOp::kClose);
        const std::int64_t t0 = now_ns();
        const auto res = client.get("/" + file_name(f));
        cold_ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
        const auto after = fs_->stats().op_snapshot(clio::io::IoOp::kClose);
        close_ms += after.mean_ms * static_cast<double>(after.count) -
                    before.mean_ms * static_cast<double>(before.count);
        closes += after.count - before.count;
        result_.attempted();
        check_get(res, f, op);
      } catch (const std::exception& e) {
        result_.failed(op, e.what());
      }
    }
    fill_pool("refill");
  }

  ManagedFileSystem& fs() { return *fs_; }
  clio::net::MiniWebServer& server() { return *server_; }
  void connect() {
    clients_conns_.clear();
    for (std::size_t c = 0; c < clients_; ++c) {
      clients_conns_.push_back(std::make_unique<clio::net::HttpClient>(
          server_->port(), /*keep_alive=*/true));
    }
  }
  [[nodiscard]] std::size_t clients() const { return clients_; }

 private:
  static std::string file_name(std::size_t i) {
    return "f" + std::to_string(i) + ".bin";
  }

  /// GETs every file once, then POSTs until every pool frame is resident.
  /// The POSTs are all of the largest size, so that few files are created:
  /// set-up time followed the number of files the runs before it had
  /// created and removed.
  void fill_pool(const std::string& what) {
    auto& client = *clients_conns_.front();
    for (std::size_t f = 0; f < bodies_.size(); ++f) {
      const std::string op = "serve_native " + what + " GET";
      try {
        result_.attempted();
        check_get(client.get("/" + file_name(f)), f, op);
      } catch (const std::exception& e) {
        result_.failed(op, e.what());
      }
    }
    const auto& pool = fs_->pool();
    std::vector<Posted> posted;
    for (std::size_t j = 0; pool.resident_pages() < pool.capacity_pages() &&
                            j < 100000;
         ++j) {
      const std::string op = "serve_native " + what + " POST";
      const std::size_t bytes = post_sizes_.back();
      const std::uint64_t stream = mix_key(0x3a7e, j, ++fill_posts_);
      try {
        result_.attempted();
        const auto res =
            client.post("/upload", to_string(make_bytes(opt_.seed, stream,
                                                        bytes)));
        if (res.status != 201) {
          result_.failed(op, "status " + std::to_string(res.status));
        } else {
          posted.push_back({res.body, stream, bytes});
        }
      } catch (const std::exception& e) {
        result_.failed(op, e.what());
      }
    }
    verify_posts(posted);
  }

  /// Fills the pool, then runs one round of the regular mix.
  void warm_up() {
    fill_pool("warm-up");
    std::vector<double> lat;
    std::vector<double> post_ms;
    std::uint64_t get_ok = 0;
    static_cast<void>(round(0, lat, post_ms, get_ok));
    std::printf("# warm-up: pool %zu/%zu pages resident\n",
                fs_->pool().resident_pages(), fs_->pool().capacity_pages());
  }

  void client_round(std::size_t round, std::size_t c, ClientOut& out) {
    clio::net::HttpClient& client = *clients_conns_[c];
    clio::util::Rng rng(mix_key(opt_.seed, round, c));
    const clio::util::ZipfDistribution zipf(file_sizes_.size(), 1.0);
    Tracer::Span round_span(SpanName::kRound, mix_key(round, c, 0));
    for (std::size_t j = 0; j < kGetsPerClient; ++j) {
      const std::size_t f = rank_to_file_[zipf(rng)];
      const std::string op = "serve_native round " + std::to_string(round) +
                             " client " + std::to_string(c) + " GET " +
                             file_name(f);
      try {
        const std::int64_t t0 = now_ns();
        clio::net::ClientResult res;
        {
          Tracer::Span span(SpanName::kNetGet);
          res = client.get("/" + file_name(f));
        }
        out.latencies_ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
        result_.attempted();
        if (check_get(res, f, op)) {
          out.get_ok += 1;
          out.bytes += static_cast<double>(res.body.size());
        }
      } catch (const std::exception& e) {
        result_.failed(op, e.what());
      }
    }
  }

  /// The round's POSTs, one after another on the first connection, with
  /// sizes cycling through post_sizes_; each is read back afterwards.
  void post_batch(std::size_t round, std::vector<double>& post_ms) {
    clio::net::HttpClient& client = *clients_conns_.front();
    Tracer::Span round_span(SpanName::kRound, mix_key(round, 0x9057, 0));
    std::vector<Posted> posted;
    for (std::size_t j = 0; j < kPostsPerRound; ++j) {
      const std::size_t bytes = post_sizes_[j % post_sizes_.size()];
      const std::uint64_t stream = mix_key(round, 0x9057, j + 1);
      const std::string op = "serve_native round " + std::to_string(round) +
                             " POST " + std::to_string(j);
      try {
        std::string body = to_string(make_bytes(opt_.seed, stream, bytes));
        const std::int64_t t0 = now_ns();
        clio::net::ClientResult res;
        {
          Tracer::Span span(SpanName::kNetPost);
          res = client.post("/upload", std::move(body));
        }
        post_ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
        result_.attempted();
        if (res.status != 201) {
          result_.failed(op, "status " + std::to_string(res.status));
        } else {
          posted.push_back({res.body, stream, bytes});
        }
      } catch (const std::exception& e) {
        result_.failed(op, e.what());
      }
    }
    verify_posts(posted);
  }

  bool check_get(const clio::net::ClientResult& res, std::size_t f,
                 const std::string& op) {
    if (res.status != 200) {
      result_.failed(op, "status " + std::to_string(res.status));
      return false;
    }
    return result_.check(res.body == bodies_[f], op,
                         "body differs from the generated file (" +
                             std::to_string(res.body.size()) + " B vs " +
                             std::to_string(bodies_[f].size()) + " B)");
  }

  /// Reads each posted file back with plain POSIX reads, compares it with
  /// the regenerated payload.
  void verify_posts(const std::vector<Posted>& posted) {
    std::unordered_set<std::string> seen;
    for (const Posted& p : posted) {
      const std::string op = "serve_native POST -> " + p.name;
      const bool fresh = seen.insert(p.name).second &&
                         p.name.rfind("post_", 0) == 0 &&
                         p.name.find('/') == std::string::npos;
      if (!result_.check(fresh, op, "server answered a reused or bad name")) {
        continue;
      }
      const std::filesystem::path path = docroot_ / p.name;
      std::vector<std::byte> got(p.bytes + 1);
      std::size_t n = 0;
      const int fd = ::open(path.c_str(), O_RDONLY);
      if (fd >= 0) {
        while (n < got.size()) {
          const ssize_t r = ::read(fd, got.data() + n, got.size() - n);
          if (r <= 0) break;
          n += static_cast<std::size_t>(r);
        }
        ::close(fd);
      }
      got.resize(n);
      result_.check(fd >= 0 && got == make_bytes(opt_.seed, p.stream, p.bytes),
                    op, "file on disk differs from the posted payload");
    }
  }

  const Options& opt_;
  RunResult& result_;
  std::filesystem::path docroot_;
  std::vector<std::size_t> file_sizes_;  ///< docroot, by file index
  std::vector<std::size_t> cold_files_;  ///< cycled by the cold cycles
  std::uint64_t fill_posts_ = 0;        ///< keys fill_pool()'s payloads
  const std::vector<std::size_t> post_sizes_ =
      size_ladder(16, 1024, 64 * 1024);  ///< cycled by POSTs
  std::size_t clients_ = 1;
  std::vector<std::size_t> rank_to_file_;
  std::vector<std::string> bodies_;  ///< expected body of each file
  // Declaration order: the server must stop before the fs it serves dies.
  std::unique_ptr<ManagedFileSystem> fs_;
  std::unique_ptr<clio::net::MiniWebServer> server_;
  std::vector<std::unique_ptr<clio::net::HttpClient>> clients_conns_;
};

/// The stages of a request the server times, as the per-layer metrics
/// name them.
constexpr std::array<std::pair<clio::obs::Stage, const char*>, 5> kStages = {{
    {clio::obs::Stage::kQueueWait, "net.queue_wait_us_p50"},
    {clio::obs::Stage::kParse, "net.parse_us_p50"},
    {clio::obs::Stage::kHandler, "net.handler_us_p50"},
    {clio::obs::Stage::kStorageOp, "net.storage_us_p50"},
    {clio::obs::Stage::kSend, "net.send_us_p50"},
}};

}  // namespace

void run_serve_native(const Options& opt, RunResult& result) {
  // Every thread of the run, the server's included, inherits this pin, so
  // the whole request path runs on one CPU.  Spread over the CPUs, with
  // the server on one half and the clients on the other, the same load
  // swung between about 4k and 9k requests/s from run to run and round to
  // round: every request then crosses CPUs three times, and each wake-up
  // of an idle virtual CPU costs a different amount.
  pin_to_last_cpu();
  ServeBench bench(opt, result);
  std::printf("# %zu client connections, %zu server workers\n",
              bench.clients(), kWorkers);

  // Timings of the rounds, gathered from every set-up's file system and
  // server before they go.  Stopping the server joins its workers, so
  // everything they recorded is visible.
  std::array<MergedTimer, kStages.size()> stages;
  MergedTimer reads;
  MergedTimer writes;
  MergedTimer closes;
  const auto collect = [&] {
    bench.server().stop();
    const auto snap = bench.server().metrics().snapshot();
    for (std::size_t k = 0; k < kStages.size(); ++k) {
      const auto* dist = snap.distribution(
          "clio_request_stage_" +
          std::string(clio::obs::stage_name(kStages[k].first)) + "_ns");
      if (dist != nullptr) stages[k].add(dist->hist);
    }
    const auto& io = bench.fs().stats();
    reads.add(io.op_histogram(clio::io::IoOp::kRead).snapshot());
    writes.add(io.op_histogram(clio::io::IoOp::kWrite).snapshot());
    closes.add(io.op_histogram(clio::io::IoOp::kClose).snapshot());
  };
  const Setup setup_spec{kSetups,
                         [&] {
                           bench.setup();
                           // Count the timed phase only.
                           bench.server().reset_stats();
                           bench.server().metrics().reset();
                           bench.fs().stats().reset();
                         },
                         [&] {
                           collect();
                           bench.teardown();
                         }};
  // Cold slots run every few rounds, so that the median of the cold
  // cycles spans the whole run like the rounds do; bunched at the end,
  // they caught whatever state the host was in for a fraction of a second.
  // Pool and tier counters are summed over the rounds alone.
  std::vector<double> latencies_ms;
  std::vector<double> post_ms;
  std::vector<double> cold_ms;
  double cold_close_ms = 0.0;
  std::uint64_t cold_closes = 0;
  std::uint64_t get_ok = 0;
  clio::io::PoolStats pool{};
  clio::net::ServerStats served{};
  const auto one_round = [&](std::size_t i) {
    const auto pool_before = bench.fs().pool().stats();
    const auto served_before = bench.server().stats();
    const RoundStats stats =
        bench.round(i + 1, latencies_ms, post_ms, get_ok);
    pool_add(pool, pool_delta(pool_before, bench.fs().pool().stats()));
    const auto served_after = bench.server().stats();
    served.sendfile_responses +=
        served_after.sendfile_responses - served_before.sendfile_responses;
    served.gather_responses +=
        served_after.gather_responses - served_before.gather_responses;
    served.cache_responses +=
        served_after.cache_responses - served_before.cache_responses;
    if ((i + 1) % kRoundsPerColdSlot == 0) {
      bench.cold_slot(i / kRoundsPerColdSlot, cold_ms, cold_close_ms,
                      cold_closes);
    }
    return stats;
  };
  double setup_s = 0.0;
  const auto rounds =
      run_rounds(opt, kRoundsPerSecond, setup_spec, setup_s, one_round);
  collect();

  if (!opt.trace) {
    report_end_to_end(result, setup_s, rounds, latencies_ms, cold_ms);
    return;
  }
  std::uint64_t ops = 0;
  double bytes = 0.0;
  for (const RoundStats& r : rounds) {
    ops += r.ops;
    bytes += r.bytes;
  }
  result.layer("io.read_us_p50", reads.p50_us(), "us");
  result.layer("io.write_us_p50", writes.p50_us(), "us");
  result.layer("io.close_us_p50", closes.p50_us(), "us");
  result.layer("io.close_us_mean_cold",
               cold_closes > 0 ? cold_close_ms * 1e3 /
                                     static_cast<double>(cold_closes)
                               : 0.0,
               "us");
  report_pool_layer(result, pool, ops, bytes, bench.fs().pool().page_size());

  std::vector<double> rtt = Tracer::instance().durations_ns(SpanName::kNetGet);
  const auto posts = Tracer::instance().durations_ns(SpanName::kNetPost);
  rtt.insert(rtt.end(), posts.begin(), posts.end());
  const double rtt_us = median(rtt) / 1e3;
  result.layer("net.client_rtt_us_p50", rtt_us, "us");
  for (std::size_t k = 0; k < kStages.size(); ++k) {
    result.layer(kStages[k].second, stages[k].p50_us(), "us");
  }
  result.layer("net.post_us_p50", median(post_ms) * 1e3, "us");
  // The handler span encloses storage and send, so the server's share of a
  // round trip is queue wait + parse + handler (kStages[0..2]); the rest is
  // the event loop, the sockets and the client.  Means add up where medians
  // do not.
  result.layer("net.loop_us_mean",
               sum(rtt) / 1e3 / static_cast<double>(std::max<std::size_t>(
                                    1, rtt.size())) -
                   stages[0].mean_us() - stages[1].mean_us() -
                   stages[2].mean_us(),
               "us");
  const auto per_op = [ops](std::uint64_t n) {
    return ops > 0 ? static_cast<double>(n) / static_cast<double>(ops) : 0.0;
  };
  const std::uint64_t zero_copy =
      served.sendfile_responses + served.gather_responses +
      served.cache_responses;
  result.layer("net.sendfile_responses_per_op",
               per_op(served.sendfile_responses), "1/op");
  result.layer("net.gather_responses_per_op", per_op(served.gather_responses),
               "1/op");
  result.layer("net.buffered_responses_per_op",
               per_op(get_ok > zero_copy ? get_ok - zero_copy : 0), "1/op");

  report_trace_layer(result, rounds);
}

}  // namespace perfbench
