// Service bench: sustained ingest throughput and query latency for the
// online detection service (DESIGN.md section 10).
//
// Two ingest modes are measured over the same stream:
//   async    IngestAsync + one final Drain — the apply loop coalesces the
//            queue, so N batches cost one snapshot publication per pass.
//   blocking one Dispatch(INGEST) per batch — each batch waits for its
//            snapshot, the per-request latency a synchronous client sees.
//
// Queries run through ServiceHandle, so every call pays the full wire
// encode/decode round trip (everything a TCP client costs minus the
// socket). Latencies are reported as p50/p99/p999 over the sorted sample.
//
// Human-readable progress goes to stderr; stdout is a single JSON object,
// so `bench_service > BENCH_service.json` captures the committed artifact.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "common/timer.h"
#include "datasets/geo.h"
#include "service/handle.h"
#include "service/service.h"
#include "storage/store.h"

namespace {

using namespace dbscout;

struct LatencyStats {
  double p50_us = 0;
  double p99_us = 0;
  double p999_us = 0;
  double mean_us = 0;
};

LatencyStats Summarize(std::vector<double>& seconds) {
  LatencyStats stats;
  if (seconds.empty()) {
    return stats;
  }
  std::sort(seconds.begin(), seconds.end());
  const auto at = [&](double q) {
    const size_t i = static_cast<size_t>(q * (seconds.size() - 1));
    return seconds[i] * 1e6;
  };
  stats.p50_us = at(0.50);
  stats.p99_us = at(0.99);
  stats.p999_us = at(0.999);
  double total = 0;
  for (double s : seconds) {
    total += s;
  }
  stats.mean_us = total / seconds.size() * 1e6;
  return stats;
}

std::vector<double> Batch(const PointSet& points, size_t begin, size_t end) {
  const size_t dims = points.dims();
  return std::vector<double>(points.values().begin() + begin * dims,
                             points.values().begin() + end * dims);
}

}  // namespace

int main(int argc, char** argv) {
  const size_t n = bench::FlagU64(argc, argv, "n", 100000);
  const size_t batch = bench::FlagU64(argc, argv, "batch", 500);
  const size_t num_queries = bench::FlagU64(argc, argv, "queries", 20000);
  const double eps = bench::FlagDouble(argc, argv, "eps", 5e5);
  const int min_pts =
      static_cast<int>(bench::FlagU64(argc, argv, "min-pts", 50));

  std::fprintf(stderr,
               "bench_service: n=%zu batch=%zu queries=%zu eps=%g minPts=%d\n",
               n, batch, num_queries, eps, min_pts);
  const PointSet stream = datasets::OsmLike(n, 91);

  service::ServiceOptions options;
  options.params.eps = eps;
  options.params.min_pts = min_pts;
  // Throughput run: admission must never shed, or we would measure the
  // enqueue path instead of the apply loop.
  options.max_pending_ingests = n;

  const uint16_t dims = static_cast<uint16_t>(stream.dims());

  // --- Ingest, async + coalesced. -----------------------------------------
  double async_seconds = 0;
  {
    service::DetectionService svc(options);
    WallTimer timer;
    for (size_t begin = 0; begin < n; begin += batch) {
      const size_t end = std::min(n, begin + batch);
      const Status s = svc.IngestAsync("bench", dims, Batch(stream, begin, end));
      if (!s.ok()) {
        std::fprintf(stderr, "async ingest: %s\n", s.ToString().c_str());
        return 1;
      }
    }
    svc.Drain();
    async_seconds = timer.ElapsedSeconds();
    std::fprintf(stderr, "  async   %.3fs (%.0f pts/s)\n", async_seconds,
                 n / async_seconds);
  }

  // --- Windowed ingest: steady-state throughput with TTL expiry active. ---
  // The service gets a logical clock that ticks once per enqueued batch and
  // a TTL of half the stream, so the sliding window turns over ~3 times
  // during the run: prefix expiry (detector Removes inside the apply loop)
  // overlaps the inserts exactly as in a production sliding window, and the
  // measured rate is the steady-state one, not append-only growth.
  double windowed_seconds = 0;
  uint64_t windowed_live = 0;
  uint64_t windowed_begin = 0;
  const size_t rounds = bench::FlagU64(argc, argv, "window-rounds", 2);
  {
    std::atomic<double> logical_now{0.0};
    service::ServiceOptions wopts = options;
    wopts.clock = [&logical_now] {
      return logical_now.load(std::memory_order_relaxed);
    };
    wopts.ttl_seconds =
        static_cast<double>(n / (2 * batch));  // in batch ticks
    wopts.max_pending_ingests = rounds * (n / batch + 1);
    service::DetectionService wsvc(wopts);
    // Sync every n/8 points: expiry stamps are taken per apply pass, so an
    // unbounded async burst would coalesce into one pass with one stamp
    // and the window would never age. Draining 8 times per round bounds
    // pass granularity at 1/4 of the TTL while keeping the coalesced
    // apply path hot.
    const size_t sync_every = std::max<size_t>(1, n / (8 * batch));
    size_t since_sync = 0;
    WallTimer timer;
    for (size_t r = 0; r < rounds; ++r) {
      for (size_t begin = 0; begin < n; begin += batch) {
        const size_t end = std::min(n, begin + batch);
        const Status s =
            wsvc.IngestAsync("bench", dims, Batch(stream, begin, end));
        if (!s.ok()) {
          std::fprintf(stderr, "windowed ingest: %s\n", s.ToString().c_str());
          return 1;
        }
        logical_now.store(logical_now.load(std::memory_order_relaxed) + 1.0,
                          std::memory_order_relaxed);
        if (++since_sync >= sync_every) {
          wsvc.Drain();
          since_sync = 0;
        }
      }
    }
    wsvc.Drain();
    windowed_seconds = timer.ElapsedSeconds();
    service::Request stats_req;
    stats_req.verb = service::Verb::kStats;
    stats_req.collection = "bench";
    const service::Response stats = wsvc.Dispatch(stats_req);
    windowed_live = stats.stats.live_points;
    windowed_begin = stats.stats.window_begin;
    std::fprintf(stderr,
                 "  windowed %.3fs (%.0f pts/s, live %llu of %zu ingested)\n",
                 windowed_seconds, rounds * n / windowed_seconds,
                 static_cast<unsigned long long>(windowed_live), rounds * n);
  }

  // --- Durable ingest sweep: the same async flow with a per-collection
  // WAL under each fsync policy. "never" prices the framing + append
  // write()s alone, "interval" the recommended group-commit mode (fsync at
  // most every 50ms, piggybacked on apply passes), "always" a full
  // fdatasync inside every durability barrier — the synchronous-commit
  // floor, reported but not gated (it measures the disk, not the code). --
  double durable_never_rate = 0;
  double durable_interval_rate = 0;
  double durable_always_rate = 0;
  {
    const std::string durable_root =
        (std::filesystem::temp_directory_path() / "dbscout_bench_durable")
            .string();
    const struct {
      const char* name;
      storage::FsyncPolicy policy;
      double* rate;
    } modes[] = {
        {"never", storage::FsyncPolicy::kNever, &durable_never_rate},
        {"interval", storage::FsyncPolicy::kInterval, &durable_interval_rate},
        {"always", storage::FsyncPolicy::kAlways, &durable_always_rate},
    };
    for (const auto& mode : modes) {
      const std::string dir = durable_root + "_" + mode.name;
      std::filesystem::remove_all(dir);
      service::ServiceOptions dopts = options;
      dopts.data_dir = dir;
      dopts.wal_fsync = mode.policy;
      {
        service::DetectionService dsvc(dopts);
        WallTimer timer;
        for (size_t begin = 0; begin < n; begin += batch) {
          const size_t end = std::min(n, begin + batch);
          const Status s =
              dsvc.IngestAsync("bench", dims, Batch(stream, begin, end));
          if (!s.ok()) {
            std::fprintf(stderr, "durable ingest (%s): %s\n", mode.name,
                         s.ToString().c_str());
            return 1;
          }
        }
        dsvc.Drain();
        *mode.rate = n / timer.ElapsedSeconds();
        std::fprintf(stderr, "  durable  fsync=%-8s %.0f pts/s\n", mode.name,
                     *mode.rate);
      }
      std::filesystem::remove_all(dir);
    }
  }

  // --- Ingest, blocking per batch; then queries against the result. -------
  service::DetectionService svc(options);
  service::ServiceHandle handle(&svc);
  double blocking_seconds = 0;
  std::vector<double> ingest_latencies;
  ingest_latencies.reserve(n / batch + 1);
  {
    WallTimer total;
    for (size_t begin = 0; begin < n; begin += batch) {
      const size_t end = std::min(n, begin + batch);
      service::Request request;
      request.verb = service::Verb::kIngest;
      request.collection = "bench";
      request.dims = dims;
      request.coords = Batch(stream, begin, end);
      WallTimer one;
      const auto response = handle.Call(request);
      ingest_latencies.push_back(one.ElapsedSeconds());
      if (!response.ok() || !response->status.ok()) {
        std::fprintf(stderr, "blocking ingest failed\n");
        return 1;
      }
    }
    blocking_seconds = total.ElapsedSeconds();
    std::fprintf(stderr, "  blocking %.3fs (%.0f pts/s)\n", blocking_seconds,
                 n / blocking_seconds);
  }

  // --- Query latency: half by-id, half probes near/far. --------------------
  Rng rng(17);
  std::vector<double> id_latencies, probe_latencies;
  id_latencies.reserve(num_queries / 2);
  probe_latencies.reserve(num_queries - num_queries / 2);
  size_t outliers_seen = 0;
  for (size_t q = 0; q < num_queries; ++q) {
    service::Request request;
    request.collection = "bench";
    request.verb = service::Verb::kQuery;
    request.want_score = true;
    const bool by_id = (q % 2) == 0;
    if (by_id) {
      request.query_by_id = true;
      request.query_id = static_cast<uint32_t>(rng.NextBounded(n));
    } else {
      const size_t base = rng.NextBounded(n);
      request.query_point.assign(stream[base].begin(), stream[base].end());
      for (double& c : request.query_point) {
        c += rng.Gaussian(0, eps * 0.1);
      }
    }
    WallTimer one;
    const auto response = handle.Call(request);
    const double elapsed = one.ElapsedSeconds();
    if (!response.ok() || !response->status.ok()) {
      std::fprintf(stderr, "query failed\n");
      return 1;
    }
    (by_id ? id_latencies : probe_latencies).push_back(elapsed);
    if (response->query.kind == core::PointKind::kOutlier) {
      ++outliers_seen;
    }
  }
  const LatencyStats ingest_lat = Summarize(ingest_latencies);
  const LatencyStats id_lat = Summarize(id_latencies);
  const LatencyStats probe_lat = Summarize(probe_latencies);
  std::fprintf(stderr, "  query-id p50=%.1fus p99=%.1fus | probe p50=%.1fus "
               "p99=%.1fus | %zu outlier verdicts\n",
               id_lat.p50_us, id_lat.p99_us, probe_lat.p50_us,
               probe_lat.p99_us, outliers_seen);

  std::printf("{\n");
  std::printf("  \"benchmark\": \"bench_service\",\n");
  std::printf("  \"dataset\": {\"generator\": \"OsmLike\", \"n\": %zu, "
              "\"dims\": %u, \"seed\": 91},\n", n, dims);
  std::printf("  \"params\": {\"eps\": %g, \"min_pts\": %d, "
              "\"batch\": %zu},\n", eps, min_pts, batch);
  std::printf("  \"ingest\": {\n");
  std::printf("    \"async_points_per_sec\": %.0f,\n", n / async_seconds);
  std::printf("    \"blocking_points_per_sec\": %.0f,\n",
              n / blocking_seconds);
  std::printf("    \"blocking_batch_p50_us\": %.1f,\n", ingest_lat.p50_us);
  std::printf("    \"blocking_batch_p99_us\": %.1f,\n", ingest_lat.p99_us);
  std::printf("    \"blocking_batch_p999_us\": %.1f\n", ingest_lat.p999_us);
  std::printf("  },\n");
  std::printf("  \"durable\": {\n");
  std::printf("    \"never_points_per_sec\": %.0f,\n", durable_never_rate);
  std::printf("    \"interval_points_per_sec\": %.0f,\n",
              durable_interval_rate);
  std::printf("    \"always_points_per_sec\": %.0f\n", durable_always_rate);
  std::printf("  },\n");
  std::printf("  \"windowed\": {\n");
  std::printf("    \"rounds\": %zu,\n", rounds);
  std::printf("    \"ttl_batches\": %zu,\n", n / (2 * batch));
  std::printf("    \"points_per_sec\": %.0f,\n",
              rounds * n / windowed_seconds);
  std::printf("    \"live_points\": %llu,\n",
              static_cast<unsigned long long>(windowed_live));
  std::printf("    \"window_begin\": %llu\n",
              static_cast<unsigned long long>(windowed_begin));
  std::printf("  },\n");
  std::printf("  \"query\": {\n");
  std::printf("    \"count\": %zu,\n", num_queries);
  std::printf("    \"by_id\": {\"p50_us\": %.1f, \"p99_us\": %.1f, "
              "\"p999_us\": %.1f, \"mean_us\": %.1f},\n",
              id_lat.p50_us, id_lat.p99_us, id_lat.p999_us, id_lat.mean_us);
  std::printf("    \"probe\": {\"p50_us\": %.1f, \"p99_us\": %.1f, "
              "\"p999_us\": %.1f, \"mean_us\": %.1f}\n",
              probe_lat.p50_us, probe_lat.p99_us, probe_lat.p999_us,
              probe_lat.mean_us);
  std::printf("  }\n");
  std::printf("}\n");
  return 0;
}
