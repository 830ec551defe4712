// Benchmark harness: runs one workload and prints, as its last stdout
// line, {"correct", "attempted", "failed", "metrics"}. The metrics are
// the end-to-end set, or with --trace 1 the per-layer set; every figure
// is also printed on the lines before it.
//
// usage: perfbench --workload W --seed N --seconds S --trace 0|1
//                  --serve-bin PATH --work-dir DIR
#include <sys/utsname.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <algorithm>
#include <set>
#include <utility>
#include <string>
#include <thread>

#include "bench.h"
#include "common/rng.h"

namespace perfbench {

void Report::EndToEnd(const std::string& name, double value,
                      const std::string& unit) {
  end_to_end_.push_back({name, value, unit});
  std::printf("metric %s %.6g %s\n", name.c_str(), value, unit.c_str());
}

void Report::Layer(const std::string& name, double value,
                   const std::string& unit, const std::string& moves) {
  layers_.push_back({name, value, unit});
  std::printf("layer %s %.6g %s (moves %s)\n", name.c_str(), value,
              unit.c_str(), moves.c_str());
}

void Report::Note(const std::string& name, double value,
                  const std::string& unit) {
  std::printf("  %s %.6g %s\n", name.c_str(), value, unit.c_str());
}

void Report::Mismatch(const std::string& what, uint64_t count) {
  correct_ = false;
  failed_ += count;
  std::printf("MISMATCH %s\n", what.c_str());
}

uint64_t OutlierHash(const std::vector<uint32_t>& outliers) {
  uint64_t hash = 1469598103934665603ull ^ outliers.size();
  for (uint32_t id : outliers) {
    hash = (hash ^ id) * 1099511628211ull;
  }
  return hash;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0.0;
}

dbscout::PointSet MakeProbes(const dbscout::PointSet& data, size_t n,
                             double sigma, uint64_t seed) {
  dbscout::Rng rng(seed);
  dbscout::PointSet probes(data.dims());
  probes.Reserve(n);
  std::vector<double> p(data.dims());
  for (size_t i = 0; i < n; ++i) {
    const auto src = data[rng.NextBounded(data.size())];
    for (size_t k = 0; k < p.size(); ++k) {
      p[k] = rng.Gaussian(src[k], sigma);
    }
    probes.Add(p);
  }
  return probes;
}

namespace {

// The metric names BENCHMARK.json lists; a run must emit each of them.
const std::set<std::string> kEndToEnd = {"setup_s", "p50_ms", "rss_mb"};
const std::set<std::string> kLayers = {
    "grid.partition_s",          "core.core_points_s",
    "core.outliers_s",           "core.dist_comps",
    "core.sequential_s",         "core.shared_speedup",
    "core.cell_maps_s",          "simd.count_within_mpts",
    "dataflow.dist_comps",       "dataflow.shuffled_records",
    "client.health_rtt_us",      "protocol.codec_us",
    "service.dispatch_query_us", "core.classify_us",
    "core.classify_dist_comps",  "core.add_batch_us",
    "core.snapshot_us",          "core.remove_us",
    "service.queue_wait_us",     "service.apply_pass_us",
    "service.snapshot_publish_us", "service.batches_per_pass",
    "storage.log_commit_us",     "storage.compact_s",
    "storage.open_recover_s",    "storage.bytes_per_point",
    "gen.late_share",            "trace.overhead_ms",
    "trace.coverage_share"};

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      return line.substr(line.find(':') + 2);
    }
  }
  return "unknown";
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
    }
    out.push_back(c);
  }
  return out;
}

void PrintMachine() {
  utsname uts{};
  ::uname(&uts);
  std::printf(
      "machine {\"nproc\": %u, \"cpu\": \"%s\", \"kernel\": \"%s\", "
      "\"compiler\": \"%s\", \"build_type\": \"%s\"}\n",
      std::thread::hardware_concurrency(), JsonEscape(CpuModel()).c_str(),
      uts.release, PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE);
}

// Host CPU time stolen from this VM and total CPU time, in clock ticks,
// from the first line of /proc/stat.
std::pair<double, double> StealAndTotalTicks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  double total = 0;
  double steal = 0;
  stat >> cpu;
  for (int i = 0; i < 8; ++i) {
    double ticks = 0;
    stat >> ticks;
    total += ticks;
    steal = i == 7 ? ticks : steal;
  }
  return {steal, total};
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload batch_geolife|serve_probe|"
               "serve_window_wal --seed N --seconds S --trace 0|1 "
               "--serve-bin PATH --work-dir DIR\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      options.seconds = std::stod(value);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--serve-bin") {
      options.serve_bin = value;
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else {
      return Usage();
    }
  }
  if (options.serve_bin.empty() || options.work_dir.empty() ||
      !(options.seconds > 0)) {
    return Usage();
  }
  PrintMachine();
  // Timings from an unoptimized build describe the compiler, not the
  // program.
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr, "perfbench: refusing to measure a %s build\n",
                 PERFBENCH_BUILD_TYPE);
    return 2;
  }
  std::printf("workload %s seed %llu seconds %g trace %d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);

  const auto [steal0, total0] = StealAndTotalTicks();
  Report report;
  int rc;
  if (options.workload == "batch_geolife") {
    rc = RunBatchGeolife(options, &report);
  } else if (options.workload == "serve_probe") {
    rc = RunServeProbe(options, &report);
  } else if (options.workload == "serve_window_wal") {
    rc = RunServeWindowWal(options, &report);
  } else {
    return Usage();
  }
  if (rc != 0) {
    return rc;
  }
  // How much of the machine the host took away during the run: timings
  // from a run with a high share are suspect.
  const auto [steal1, total1] = StealAndTotalTicks();
  std::printf("machine.steal_share %.4f\n",
              (steal1 - steal0) / std::max(total1 - total0, 1.0));

  const std::vector<Metric>& metrics =
      options.trace ? report.layers() : report.end_to_end();
  const std::set<std::string>& expected = options.trace ? kLayers : kEndToEnd;
  std::set<std::string> seen;
  for (const Metric& m : metrics) {
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "perfbench: %s is not finite\n", m.name.c_str());
      return 1;
    }
    seen.insert(m.name);
  }
  if (seen != expected) {
    for (const std::string& name : expected) {
      if (seen.count(name) == 0) {
        std::fprintf(stderr, "perfbench: metric %s missing\n", name.c_str());
      }
    }
    return 1;
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              report.correct() ? "true" : "false",
              static_cast<unsigned long long>(report.attempted()),
              static_cast<unsigned long long>(report.failed()));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  return 0;
}
