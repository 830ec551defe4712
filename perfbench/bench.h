// Shared declarations of the benchmark harness: run options, the report
// every workload fills, and the workload and layer entry points.
#ifndef DBSCOUT_PERFBENCH_BENCH_H_
#define DBSCOUT_PERFBENCH_BENCH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/params.h"
#include "data/point_set.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string serve_bin;  // dbscout_serve, built beside the harness
  std::string work_dir;   // scratch space for WAL directories and logs
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run measured. End-to-end metrics are emitted by the untraced
/// run, layer metrics by the traced run; both are printed as they are
/// recorded, so every run also leaves a readable log.
class Report {
 public:
  void EndToEnd(const std::string& name, double value, const std::string& unit);
  void Layer(const std::string& name, double value, const std::string& unit,
             const std::string& moves);
  /// A figure outside the contract metric set; printed only.
  void Note(const std::string& name, double value, const std::string& unit);
  /// An output that differs from its oracle: the run is not correct.
  void Mismatch(const std::string& what, uint64_t count);
  void Attempted(uint64_t n) { attempted_ += n; }
  void Failed(uint64_t n) { failed_ += n; }

  bool correct() const { return correct_; }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  const std::vector<Metric>& end_to_end() const { return end_to_end_; }
  const std::vector<Metric>& layers() const { return layers_; }

 private:
  bool correct_ = true;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<Metric> end_to_end_;
  std::vector<Metric> layers_;
};

/// Order-independent hash of an outlier index set.
uint64_t OutlierHash(const std::vector<uint32_t>& outliers);

/// Peak resident set size of this process, in MB.
double PeakRssMb();

/// `n` probe points: stored points of `data` jittered by a Gaussian of
/// `sigma` per coordinate, so most probes land in populated cells.
dbscout::PointSet MakeProbes(const dbscout::PointSet& data, size_t n,
                             double sigma, uint64_t seed);

// --- layers.cc -----------------------------------------------------------

struct DetectTimes {
  double shared_s = 0.0;  // traced shared-memory detection, end to end
  double phase_s = 0.0;   // the sum of its phase rows
};

/// Times the detection engines on `points` with tracing on: the
/// shared-memory and dataflow engines through core::Detect (phase rows
/// from their Detection), DetectSequential, and the SIMD count kernel.
DetectTimes DetectLayers(const dbscout::PointSet& points,
                    const dbscout::core::Params& params, Report* report);

/// Times the incremental detector, the in-process service, the protocol
/// codec and the storage layer on `points`, inserted in batches of
/// `batch` points, with `probes` as the classification inputs.
/// `recover_dir`, when set, is the collection directory that
/// storage.open_recover_s and storage.bytes_per_point read; otherwise the
/// layer probe's own store is used.
void InProcessLayers(const dbscout::PointSet& points,
                     const dbscout::core::Params& params, size_t batch,
                     const dbscout::PointSet& probes,
                     const std::string& work_dir,
                     const std::string& recover_dir, Report* report);

/// Reads the running server's HEALTH round trip, TRACE spans and METRICS
/// into the service.* and client.* layer metrics.
void ServerLayers(uint16_t port, Report* report);

/// Emits trace.overhead_ms and trace.coverage_share.
void TraceAccounting(double untraced_ms, double traced_ms, double layer_ms,
                     Report* report);

// --- workloads.cc --------------------------------------------------------

int RunBatchGeolife(const Options& options, Report* report);
int RunServeProbe(const Options& options, Report* report);
int RunServeWindowWal(const Options& options, Report* report);

}  // namespace perfbench

#endif  // DBSCOUT_PERFBENCH_BENCH_H_
