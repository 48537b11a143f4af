// perfbench: one end-to-end benchmark of the clio managed I/O stack.
//
//   perfbench --workload <replay_lu|managed_kernels|serve_native>
//             --seed <n> --seconds <s> --trace <0|1>
//             --workdir <dir> [--trace-out <file>]
//
// Each run sets up its inputs from the seed, warms up, runs whole rounds of
// a fixed operation mix for the given seconds, runs a cold-start phase,
// checks every output against its own model, and prints one JSON object as
// the last line of stdout: {"correct", "attempted", "failed", "metrics"}.
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// run records spans and prints the per-layer metrics it measured instead
// (run.py adds the ones the workload's layers never entered, as 0).

#include <sys/statfs.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <map>
#include <string>

#include "common.hpp"
#include "io/uring_store.hpp"

namespace {

using namespace perfbench;

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why << "\n"
            << "usage: perfbench --workload <replay_lu|managed_kernels|"
               "serve_native> --seed <n> --seconds <s> "
               "--trace <0|1> --workdir <dir> [--trace-out <file>]\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  std::map<std::string, std::string> kv;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) usage("bad argument " + key);
    kv[key.substr(2)] = argv[++i];
  }
  try {
    opt.workload = kv.at("workload");
    opt.seed = std::stoull(kv.at("seed"));
    opt.seconds = std::stod(kv.at("seconds"));
    opt.trace = std::stoi(kv.at("trace")) != 0;
    opt.workdir = kv.at("workdir");
  } catch (const std::exception&) {
    usage("missing or malformed option");
  }
  if (kv.count("trace-out") != 0) opt.trace_out = kv["trace-out"];
  if (opt.seconds <= 0.0) usage("--seconds must be positive");
  return opt;
}

std::string fs_type_name(const std::filesystem::path& dir) {
  struct statfs st {};
  if (statfs(dir.c_str(), &st) != 0) return "unknown";
  switch (static_cast<unsigned long>(st.f_type)) {
    case 0xEF53UL: return "ext2/3/4";
    case 0x01021994UL: return "tmpfs";
    case 0x58465342UL: return "xfs";
    case 0x9123683EUL: return "btrfs";
    case 0x794C7630UL: return "overlayfs";
    case 0x6969UL: return "nfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof buf, "0x%lx",
                    static_cast<unsigned long>(st.f_type));
      return buf;
    }
  }
}

/// Prints the environment the result belongs to, as a comment line ahead
/// of the result line.
void print_provenance(const Options& opt) {
  utsname uts{};
  uname(&uts);
  std::printf(
      "# provenance {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"nproc\": %ld, \"kernel\": \"%s\", "
      "\"build_type\": \"%s\", \"uring_supported\": %s, "
      "\"workdir_fs\": \"%s\"}\n",
      opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
      opt.seconds, opt.trace ? 1 : 0, sysconf(_SC_NPROCESSORS_ONLN),
      uts.release, PERFBENCH_BUILD_TYPE,
      clio::io::UringStore::supported() ? "true" : "false",
      fs_type_name(opt.workdir).c_str());
  std::fflush(stdout);
}

void print_result(const Options& opt, const RunResult& result) {
  std::string metrics;
  auto add = [&](const std::string& name, double value,
                 const std::string& unit) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
               unit + "\"}";
  };
  for (const Metric& m : opt.trace ? result.layer_metrics()
                                   : result.end_to_end_metrics()) {
    add(m.name, m.value, m.unit);
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      result.correct() ? "true" : "false",
      static_cast<unsigned long long>(result.attempted_ops()),
      static_cast<unsigned long long>(result.failed_ops()), metrics.c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  const std::map<std::string, void (*)(const Options&, RunResult&)> workloads =
      {{"replay_lu", &run_replay_lu},
       {"managed_kernels", &run_managed_kernels},
       {"serve_native", &run_serve_native}};
  const auto it = workloads.find(opt.workload);
  if (it == workloads.end()) usage("unknown workload " + opt.workload);

  std::error_code ec;
  std::filesystem::create_directories(opt.workdir, ec);
  if (ec) usage("cannot create workdir " + opt.workdir.string());
  print_provenance(opt);

  RunResult result;
  try {
    Tracer::instance().set_enabled(false);
    it->second(opt, result);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << opt.workload << " aborted: " << e.what()
              << "\n";
    return 2;
  }
  if (opt.trace && !opt.trace_out.empty()) {
    if (!Tracer::instance().dump(opt.trace_out)) {
      std::cerr << "perfbench: cannot write " << opt.trace_out << "\n";
      return 2;
    }
    std::printf("# spans: %zu written to %s\n", Tracer::instance().span_count(),
                opt.trace_out.c_str());
  }
  print_result(opt, result);
  return result.correct() ? 0 : 1;
}
