// Per-layer measurements of the traced run. Each one times calls into a
// module's public functions from here, or reads the server's own TRACE
// and METRICS surfaces, and names the end-to-end metric it should move.
#include <filesystem>
#include <map>
#include <string>
#include <thread>

#include "bench.h"
#include "common/thread_pool.h"
#include "core/dbscout.h"
#include "core/incremental.h"
#include "serve.h"
#include "service/client.h"
#include "service/protocol.h"
#include "service/service.h"
#include "simd/distance_kernel.h"
#include "stats.h"
#include "storage/snapshot.h"
#include "storage/store.h"

namespace perfbench {

using namespace dbscout;

namespace {

double Us(double seconds) { return seconds * 1e6; }

double PhaseSeconds(const core::Detection& d, std::string_view name) {
  for (const core::PhaseStats& phase : d.phases) {
    if (phase.name == name) {
      return phase.seconds;
    }
  }
  return 0.0;
}

uint64_t DistanceComps(const core::Detection& d) {
  uint64_t total = 0;
  for (const core::PhaseStats& phase : d.phases) {
    total += phase.distance_computations;
  }
  return total;
}

PointSet Slice(const PointSet& points, size_t begin, size_t end) {
  const size_t d = points.dims();
  std::vector<double> coords(points.values().begin() + begin * d,
                             points.values().begin() + end * d);
  return *PointSet::FromRowMajor(d, std::move(coords));
}

// Durations (seconds) of the spans named `name` in a TRACE dump, keeping
// only request-scoped spans (those carrying a trace id).
std::vector<double> SpanSeconds(const std::string& json,
                                const std::string& name) {
  std::vector<double> out;
  const std::string key = "{\"name\":\"" + name + "\"";
  for (size_t at = json.find(key); at != std::string::npos;
       at = json.find(key, at + 1)) {
    const size_t end = json.find("}}", at);
    const std::string event = json.substr(at, end - at);
    const size_t dur = event.find("\"dur\":");
    if (dur == std::string::npos ||
        event.find("\"trace_id\":") == std::string::npos) {
      continue;
    }
    out.push_back(std::stod(event.substr(dur + 6)) * 1e-6);
  }
  return out;
}

double PrometheusValue(const std::string& text, const std::string& series) {
  double total = 0.0;
  size_t at = 0;
  while ((at = text.find(series, at)) != std::string::npos) {
    const bool line_start = at == 0 || text[at - 1] == '\n';
    const size_t after = at + series.size();
    at = after;
    if (!line_start || (text[after] != ' ' && text[after] != '{')) {
      continue;
    }
    const size_t value = text.find(' ', text.find_first_of(" }", after));
    total += std::stod(text.substr(value + 1));
  }
  return total;
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t bytes = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.is_regular_file()) {
      bytes += entry.file_size();
    }
  }
  return bytes;
}

}  // namespace

DetectTimes DetectLayers(const PointSet& points, const core::Params& params,
                    Report* report) {
  obs::TraceCollector trace;
  core::Params p = params;
  p.trace = &trace;

  p.engine = core::Engine::kSharedMemory;
  double t = Now();
  auto shared = core::Detect(points, p);
  const double shared_s = Now() - t;

  p.engine = core::Engine::kParallel;
  p.join = core::JoinStrategy::kGrouped;
  p.num_partitions = 64;
  t = Now();
  auto flow = core::Detect(points, p);
  const double flow_s = Now() - t;

  t = Now();
  auto seq = core::DetectSequential(points, params);
  const double seq_s = Now() - t;
  if (!shared.ok() || !flow.ok() || !seq.ok()) {
    report->Mismatch("layer detection failed", 1);
    return {shared_s, 0.0};
  }
  const uint64_t oracle = OutlierHash(seq->outliers);
  report->Attempted(2);
  if (OutlierHash(shared->outliers) != oracle) {
    report->Mismatch("layer shared-memory outliers", 1);
  }
  if (OutlierHash(flow->outliers) != oracle) {
    report->Mismatch("layer dataflow outliers", 1);
  }

  const std::string e2e = "detect_s";
  report->Layer("grid.partition_s", PhaseSeconds(*shared, "grid"), "s", e2e);
  report->Layer("core.core_points_s", PhaseSeconds(*shared, "core_points"),
                "s", e2e);
  report->Layer("core.outliers_s", PhaseSeconds(*shared, "outliers"), "s",
                e2e);
  report->Layer("core.dist_comps", static_cast<double>(DistanceComps(*shared)),
                "count", e2e);
  report->Layer("core.sequential_s", seq_s, "s", e2e);
  report->Layer("core.shared_speedup", seq_s / shared_s, "x", e2e);
  report->Layer("core.cell_maps_s",
                PhaseSeconds(*flow, "dense_cell_map") +
                    PhaseSeconds(*flow, "core_cell_map"),
                "s", "detect_dataflow_s");
  report->Layer("dataflow.dist_comps",
                static_cast<double>(DistanceComps(*flow)), "count",
                "detect_dataflow_s");
  report->Layer("dataflow.shuffled_records",
                static_cast<double>(flow->shuffled_records), "count",
                "detect_dataflow_s");
  report->Note("dataflow_engine_s", flow_s, "s");

  // The count kernel at the data's own dimension, without early exit:
  // each query scans a 1024-point block of stored rows.
  const size_t d = points.dims();
  const size_t block = std::min<size_t>(1024, points.size());
  const size_t queries = std::min<size_t>(20000, points.size());
  const double eps2 = params.eps * params.eps;
  const auto count_within = simd::DispatchedKernels().count_within[d];
  uint64_t hits = 0;
  t = Now();
  for (size_t q = 0; q < queries; ++q) {
    const size_t base = (q * 7919) % (points.size() - block + 1);
    hits += count_within(points[q].data(), points[base].data(), block, eps2,
                         static_cast<uint32_t>(block));
  }
  const double kernel_s = Now() - t;
  // Printing the hit count keeps the kernel calls from being optimized out.
  report->Note("simd.hits", static_cast<double>(hits), "count");
  report->Layer("simd.count_within_mpts",
                static_cast<double>(queries * block) / kernel_s / 1e6,
                "Mpts/s", e2e);
  double phase_s = 0.0;
  for (const core::PhaseStats& phase : shared->phases) {
    phase_s += phase.seconds;
  }
  return {shared_s, phase_s};
}

void InProcessLayers(const PointSet& points, const core::Params& params,
                     size_t batch, const PointSet& probes,
                     const std::string& work_dir,
                     const std::string& recover_dir, Report* report) {
  const size_t d = points.dims();
  const size_t n = points.size();

  // Incremental detector: the apply and publish steps of one ingest.
  auto det = core::IncrementalDetector::Create(d, params);
  ThreadPool pool(std::thread::hardware_concurrency());
  std::vector<double> add_s;
  std::vector<double> snap_s;
  for (size_t begin = 0; begin < n; begin += batch) {
    const PointSet slice = Slice(points, begin, std::min(n, begin + batch));
    double t = Now();
    const Status added = det->AddBatchParallel(slice, &pool);
    add_s.push_back(Now() - t);
    t = Now();
    det->SnapshotNow();
    snap_s.push_back(Now() - t);
    if (!added.ok()) {
      report->Mismatch("incremental AddBatchParallel: " + added.ToString(), 1);
      return;
    }
  }
  const auto snapshot = det->SnapshotNow();
  const size_t num_probes = std::min<size_t>(5000, probes.size());
  std::vector<double> classify_s;
  std::vector<core::PointKind> expected(num_probes);
  double classify_comps = 0;
  for (size_t i = 0; i < num_probes; ++i) {
    const double t = Now();
    auto probe = snapshot->Classify(probes[i], /*want_score=*/false);
    classify_s.push_back(Now() - t);
    if (probe.ok()) {
      expected[i] = probe->kind;
      classify_comps += static_cast<double>(probe->distance_comps);
    }
  }
  std::vector<double> remove_s;
  for (uint32_t id = 0; id < std::min<size_t>(2000, n); ++id) {
    const double t = Now();
    const Status removed = det->Remove(id);
    remove_s.push_back(Now() - t);
    if (!removed.ok()) {
      report->Mismatch("incremental Remove: " + removed.ToString(), 1);
      break;
    }
  }
  report->Layer("core.add_batch_us", Us(Median(add_s)), "us",
                "ingest_ack_p50_ms");
  report->Layer("core.snapshot_us", Us(Median(snap_s)), "us",
                "ingest_ack_p50_ms");
  report->Layer("core.remove_us", Us(Median(remove_s)), "us",
                "ingest_ack_p99_ms");
  report->Layer("core.classify_us", Us(Median(classify_s)), "us",
                "query_p50_ms");
  report->Layer("core.classify_dist_comps",
                classify_comps / static_cast<double>(num_probes), "count",
                "query_p50_ms");

  // In-process service: QUERY dispatch with no socket, cross-checked
  // against the snapshot's own Classify.
  {
    service::ServiceOptions options;
    options.params = params;
    service::DetectionService svc(options);
    for (size_t begin = 0; begin < n; begin += 5000) {
      service::Request ingest;
      ingest.verb = service::Verb::kIngest;
      ingest.collection = "layers";
      ingest.dims = static_cast<uint16_t>(d);
      const size_t end = std::min(n, begin + 5000);
      ingest.coords.assign(points.values().begin() + begin * d,
                           points.values().begin() + end * d);
      const service::Response r = svc.Dispatch(ingest);
      if (!r.status.ok()) {
        report->Mismatch("service ingest: " + r.status.ToString(), 1);
        return;
      }
    }
    std::vector<double> dispatch_s;
    uint64_t mismatches = 0;
    for (size_t i = 0; i < num_probes; ++i) {
      service::Request query;
      query.verb = service::Verb::kQuery;
      query.collection = "layers";
      query.query_point.assign(probes[i].begin(), probes[i].end());
      const double t = Now();
      const service::Response r = svc.Dispatch(query);
      dispatch_s.push_back(Now() - t);
      mismatches += r.status.ok() && r.query.kind == expected[i] ? 0 : 1;
    }
    svc.Stop();
    report->Attempted(num_probes);
    if (mismatches > 0) {
      report->Mismatch("in-process QUERY vs Classify", mismatches);
    }
    report->Layer("service.dispatch_query_us", Us(Median(dispatch_s)), "us",
                  "query_p50_ms");
  }

  // Protocol codec: one QUERY round trip's four calls.
  {
    std::vector<double> codec_s;
    for (size_t i = 0; i < num_probes; ++i) {
      service::Request query;
      query.verb = service::Verb::kQuery;
      query.collection = "layers";
      query.query_point.assign(probes[i].begin(), probes[i].end());
      service::Response reply;
      reply.verb = service::Verb::kQuery;
      reply.query.kind = expected[i];
      reply.query.epoch = n;
      const double t = Now();
      const std::vector<uint8_t> req = service::EncodeRequest(query);
      const auto decoded = service::DecodeRequest(req);
      const std::vector<uint8_t> resp = service::EncodeResponse(reply);
      const auto back = service::DecodeResponse(resp);
      codec_s.push_back(Now() - t);
      if (!decoded.ok() || !back.ok() || back->query.kind != expected[i]) {
        report->Mismatch("protocol round trip", 1);
        return;
      }
    }
    report->Layer("protocol.codec_us", Us(Median(codec_s)), "us",
                  "query_p50_ms");
  }

  // Storage: one WAL append + group commit per batch, then compaction and
  // recovery.
  {
    const std::string dir = work_dir + "/layer_store";
    std::filesystem::remove_all(dir);
    storage::StoreOptions options;
    options.fsync = storage::FsyncPolicy::kInterval;
    options.snapshot_interval_bytes = 0;
    options.collection = "layers";
    storage::RecoveredCollection recovered;
    auto store = storage::CollectionStore::Open(dir, options, &recovered);
    if (!store.ok()) {
      report->Mismatch("store open: " + store.status().ToString(), 1);
      return;
    }
    storage::WalRecord create;
    create.type = storage::WalRecordType::kCreate;
    create.dims = static_cast<uint16_t>(d);
    Status status = (*store)->LogRecord(create);
    std::vector<double> commit_s;
    for (size_t begin = 0; begin < n && status.ok(); begin += batch) {
      storage::WalRecord record;
      record.type = storage::WalRecordType::kIngest;
      record.dims = static_cast<uint16_t>(d);
      record.base_epoch = begin;
      const size_t end = std::min(n, begin + batch);
      record.coords.assign(points.values().begin() + begin * d,
                           points.values().begin() + end * d);
      const double t = Now();
      status = (*store)->LogRecord(record);
      if (status.ok()) {
        status = (*store)->Commit();
      }
      commit_s.push_back(Now() - t);
    }
    double t = Now();
    if (status.ok()) {
      status = (*store)->CompactNow();
    }
    const double compact_s = Now() - t;
    if (status.ok()) {
      status = (*store)->Close();
    }
    store->reset();
    if (!status.ok()) {
      report->Mismatch("store write: " + status.ToString(), 1);
      return;
    }
    const std::string target = recover_dir.empty() ? dir : recover_dir;
    t = Now();
    auto reopened = storage::CollectionStore::Open(target, options, &recovered);
    const double open_s = Now() - t;
    if (!reopened.ok()) {
      report->Mismatch("store recover: " + reopened.status().ToString(), 1);
      return;
    }
    reopened->reset();
    storage::CollectionState state = std::move(recovered.base);
    for (const storage::WalRecord& record : recovered.suffix) {
      status = storage::ApplyRecordToState(record, &state);
    }
    const double live = static_cast<double>(state.epoch - state.window_begin);
    report->Layer("storage.log_commit_us", Us(Median(commit_s)), "us",
                  "ingest_ack_p99_ms");
    report->Layer("storage.compact_s", compact_s, "s", "ingest_ack_p99_ms");
    report->Layer("storage.open_recover_s", open_s, "s", "recovery_s");
    report->Layer("storage.bytes_per_point",
                  static_cast<double>(DirBytes(target)) / std::max(live, 1.0),
                  "B", "recovery_s");
    std::filesystem::remove_all(dir);
  }
}

void ServerLayers(uint16_t port, Report* report) {
  auto client = service::Client::Connect("127.0.0.1", port);
  if (!client.ok()) {
    report->Mismatch("layer client connect", 1);
    return;
  }
  std::vector<double> rtt_s;
  for (int i = 0; i < 300; ++i) {
    const double t = Now();
    auto health = client->Health();
    rtt_s.push_back(Now() - t);
    if (!health.ok()) {
      report->Mismatch("HEALTH", 1);
      return;
    }
  }
  report->Layer("client.health_rtt_us", Us(Median(rtt_s)), "us",
                "query_p50_ms");

  const std::map<std::string, std::string> spans = {
      {"queue_wait", "service.queue_wait_us"},
      {"apply_pass", "service.apply_pass_us"},
      {"snapshot_publish", "service.snapshot_publish_us"}};
  for (const auto& [span, metric] : spans) {
    auto dump = client->TraceDump("", span);
    const std::vector<double> seconds =
        dump.ok() ? SpanSeconds(dump->json, span) : std::vector<double>{};
    if (seconds.empty()) {
      report->Mismatch("TRACE has no traced " + span + " spans", 1);
      return;
    }
    report->Layer(metric, Us(Median(seconds)), "us", "ingest_ack_p50_ms");
  }
  auto metrics = client->Metrics();
  if (!metrics.ok()) {
    report->Mismatch("METRICS", 1);
    return;
  }
  const double passes =
      PrometheusValue(*metrics, "dbscout_apply_batch_size_count");
  const double batches =
      PrometheusValue(*metrics, "dbscout_apply_batch_size_sum");
  report->Layer("service.batches_per_pass", batches / std::max(passes, 1.0),
                "count", "ingest_ack_p50_ms");
}

void TraceAccounting(double untraced_ms, double traced_ms, double layer_ms,
                     Report* report) {
  report->Layer("trace.overhead_ms", traced_ms - untraced_ms, "ms", "p50_ms");
  report->Layer("trace.coverage_share", layer_ms / untraced_ms, "share",
                "p50_ms");
}

}  // namespace perfbench
