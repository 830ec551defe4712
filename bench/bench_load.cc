// Load bench: open-loop latency for the TCP front-end under a mixed
// INGEST/QUERY workload (DESIGN.md sections 10 and 16).
//
// bench_service measures the in-process service (handle-level calls, no
// socket); this harness prices the full production path — frame encode,
// kernel socket hop, session read loop, dispatch, reply — from several
// concurrent connections at a *fixed arrival rate*. The generator is
// open-loop: every request has a scheduled send time on a precomputed
// timeline, and its latency is measured from that schedule, not from the
// moment the socket became free. A server that falls behind therefore
// accrues queueing delay in the percentiles instead of silently slowing
// the generator down (no coordinated omission).
//
// Each connection runs on its own thread with its own client; the target
// rate is split evenly across connections and the per-connection timelines
// are phase-staggered so aggregate arrivals are uniform. The mix is
// ingest-heavy by default (each ingest is a small batch, each query a
// probe near a previously ingested point).
//
// Human-readable progress goes to stderr; stdout is a single JSON object
// whose "load" section tools/bench_gate.sh merges into the fresh
// bench_service document, so committed gates live in BENCH_service.json.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "service/client.h"
#include "service/server.h"
#include "service/service.h"

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

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct WorkerResult {
  std::vector<double> ingest_latencies;
  std::vector<double> query_latencies;
  size_t errors = 0;
  size_t late_sends = 0;  // requests whose scheduled time had already passed
};

}  // namespace

int main(int argc, char** argv) {
  const size_t connections = bench::FlagU64(argc, argv, "connections", 4);
  const double rate = bench::FlagDouble(argc, argv, "rate", 500);
  const double duration = bench::FlagDouble(argc, argv, "duration", 5);
  const size_t batch = bench::FlagU64(argc, argv, "batch", 64);
  const double query_fraction =
      bench::FlagDouble(argc, argv, "query-fraction", 0.5);
  const double eps = bench::FlagDouble(argc, argv, "eps", 1.0);
  const int min_pts =
      static_cast<int>(bench::FlagU64(argc, argv, "min-pts", 8));

  const size_t total_ops = static_cast<size_t>(rate * duration);
  const size_t per_conn = std::max<size_t>(1, total_ops / connections);
  std::fprintf(stderr,
               "bench_load: connections=%zu rate=%.0f/s duration=%.1fs "
               "ops=%zu batch=%zu query-fraction=%.2f\n",
               connections, rate, duration, per_conn * connections, batch,
               query_fraction);

  service::ServiceOptions options;
  options.params.eps = eps;
  options.params.min_pts = min_pts;
  // Load run: admission shedding would turn tail latency into error counts.
  options.max_pending_ingests = per_conn * connections;
  service::DetectionService service(options);
  auto server = service::Server::Start(&service, service::ServerOptions{});
  if (!server.ok()) {
    std::fprintf(stderr, "bench_load: %s\n", server.status().ToString().c_str());
    return 1;
  }
  const uint16_t port = (*server)->port();

  // Warm the collection so early probes hit a live grid rather than the
  // empty-collection fast path.
  {
    auto warm = service::Client::Connect("127.0.0.1", port);
    if (!warm.ok()) {
      std::fprintf(stderr, "bench_load: warm connect failed\n");
      return 1;
    }
    Rng rng(7);
    std::vector<double> coords;
    coords.reserve(2 * 512);
    for (size_t i = 0; i < 512; ++i) {
      coords.push_back(rng.Gaussian(0, 2.0));
      coords.push_back(rng.Gaussian(0, 2.0));
    }
    if (!warm->Ingest("load", 2, coords).ok()) {
      std::fprintf(stderr, "bench_load: warm ingest failed\n");
      return 1;
    }
  }

  // All timelines anchor to one start a moment in the future so every
  // connection thread is parked on its first deadline before the clock
  // starts — thread spawn jitter does not leak into the schedule.
  const double interval = connections / rate;  // per-connection spacing
  const double t0 = NowSeconds() + 0.2;

  std::vector<WorkerResult> results(connections);
  ThreadPool pool(connections);
  std::atomic<bool> failed{false};
  for (size_t c = 0; c < connections; ++c) {
    pool.Submit([&, c] {
      WorkerResult& out = results[c];
      auto client = service::Client::Connect("127.0.0.1", port);
      if (!client.ok()) {
        failed.store(true);
        return;
      }
      Rng rng(1000 + c);
      out.ingest_latencies.reserve(per_conn);
      out.query_latencies.reserve(per_conn);
      // Phase-stagger: connection c fires at t0 + (k + c/C) * interval.
      const double phase = t0 + interval * static_cast<double>(c) /
                                    static_cast<double>(connections);
      for (size_t k = 0; k < per_conn; ++k) {
        const double scheduled = phase + interval * static_cast<double>(k);
        const double now = NowSeconds();
        if (scheduled > now) {
          std::this_thread::sleep_for(
              std::chrono::duration<double>(scheduled - now));
        } else {
          ++out.late_sends;
        }
        const bool is_query = rng.NextDouble() < query_fraction;
        bool ok;
        if (is_query) {
          const double x = rng.Gaussian(0, 2.0);
          const double y = rng.Gaussian(0, 2.0);
          ok = client->QueryPoint("load", {x, y}, /*want_score=*/false).ok();
        } else {
          std::vector<double> coords;
          coords.reserve(2 * batch);
          for (size_t i = 0; i < batch; ++i) {
            coords.push_back(rng.Gaussian(0, 2.0));
            coords.push_back(rng.Gaussian(0, 2.0));
          }
          ok = client->Ingest("load", 2, coords).ok();
        }
        // Open-loop latency: completion minus *scheduled* send.
        const double latency = NowSeconds() - scheduled;
        if (!ok) {
          ++out.errors;
          continue;
        }
        (is_query ? out.query_latencies : out.ingest_latencies)
            .push_back(latency);
      }
    });
  }
  pool.WaitIdle();
  const double wall = NowSeconds() - t0;
  (*server)->Stop();
  service.Stop();
  if (failed.load()) {
    std::fprintf(stderr, "bench_load: worker connect failed\n");
    return 1;
  }

  std::vector<double> ingest_all, query_all;
  size_t errors = 0, late = 0;
  for (const WorkerResult& r : results) {
    ingest_all.insert(ingest_all.end(), r.ingest_latencies.begin(),
                      r.ingest_latencies.end());
    query_all.insert(query_all.end(), r.query_latencies.begin(),
                     r.query_latencies.end());
    errors += r.errors;
    late += r.late_sends;
  }
  const size_t completed = ingest_all.size() + query_all.size();
  const double achieved = completed / wall;
  const LatencyStats ingest_lat = Summarize(ingest_all);
  const LatencyStats query_lat = Summarize(query_all);
  std::fprintf(stderr,
               "  %zu ops in %.2fs (%.0f/s achieved, %zu late, %zu errors)\n",
               completed, wall, achieved, late, errors);
  std::fprintf(stderr,
               "  ingest p50=%.1fus p99=%.1fus p999=%.1fus | "
               "query p50=%.1fus p99=%.1fus p999=%.1fus\n",
               ingest_lat.p50_us, ingest_lat.p99_us, ingest_lat.p999_us,
               query_lat.p50_us, query_lat.p99_us, query_lat.p999_us);

  std::printf("{\n");
  std::printf("  \"benchmark\": \"bench_load\",\n");
  std::printf("  \"load\": {\n");
  std::printf("    \"connections\": %zu,\n", connections);
  std::printf("    \"offered_rps\": %.0f,\n", rate);
  std::printf("    \"achieved_rps\": %.0f,\n", achieved);
  std::printf("    \"duration_s\": %.2f,\n", wall);
  std::printf("    \"late_sends\": %zu,\n", late);
  std::printf("    \"errors\": %zu,\n", errors);
  std::printf("    \"ingest\": {\"count\": %zu, \"p50_us\": %.1f, "
              "\"p99_us\": %.1f, \"p999_us\": %.1f, \"mean_us\": %.1f},\n",
              ingest_all.size(), ingest_lat.p50_us, ingest_lat.p99_us,
              ingest_lat.p999_us, ingest_lat.mean_us);
  std::printf("    \"query\": {\"count\": %zu, \"p50_us\": %.1f, "
              "\"p99_us\": %.1f, \"p999_us\": %.1f, \"mean_us\": %.1f}\n",
              query_all.size(), query_lat.p50_us, query_lat.p99_us,
              query_lat.p999_us, query_lat.mean_us);
  std::printf("  }\n");
  std::printf("}\n");
  return errors == 0 ? 0 : 1;
}
