// TSan stress test for the incremental engine's shared cell table: reader
// threads classify probes against the latest published snapshot while the
// writer ingests uniform-noise batches through the sharded apply path (so
// almost every batch creates cells and the cell index grows under the
// readers) and expires a window prefix. Each reader keeps a sample of its
// answers; after the run every sample is checked against DetectSequential
// on that snapshot's live points plus the probe. A reader that saw a cell,
// a point list or a label written after its snapshot's freeze fails the
// check in every build mode, and TSan sees the index's release/acquire
// protocol and the directory's copy-on-write under contention.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/dbscout.h"
#include "core/incremental.h"
#include "testutil.h"

namespace dbscout::core {
namespace {

constexpr int kBatches = 30;
constexpr size_t kBatchPoints = 80;
constexpr uint32_t kExpirePerBatch = 40;
constexpr int kReaders = 2;

/// The published-snapshot slot. The snapshot contract only needs a
/// release/acquire edge on the pointer; a mutex gives one that TSan can
/// see, where libstdc++'s std::atomic<std::shared_ptr> load (unlocked by a
/// relaxed RMW) draws reports unrelated to the snapshot's contents.
class Latest {
 public:
  void Store(std::shared_ptr<const IncrementalSnapshot> snap) {
    std::lock_guard<std::mutex> lock(mu_);
    snap_ = std::move(snap);
  }
  std::shared_ptr<const IncrementalSnapshot> Load() {
    std::lock_guard<std::mutex> lock(mu_);
    return snap_;
  }

 private:
  std::mutex mu_;
  std::shared_ptr<const IncrementalSnapshot> snap_;
};

struct Sample {
  std::shared_ptr<const IncrementalSnapshot> snap;
  std::vector<double> probe;
  PointKind kind = PointKind::kOutlier;
};

TEST(IncrementalStressTest, ReadersClassifyWhileWriterGrowsTheCellIndex) {
  Params params;
  params.eps = 1.0;
  params.min_pts = 3;
  auto created = IncrementalDetector::Create(2, params);
  ASSERT_TRUE(created.ok());
  IncrementalDetector det = std::move(*created);

  Latest latest;
  latest.Store(det.SnapshotNow());
  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  std::mutex samples_mu;
  std::vector<Sample> samples;

  ThreadPool readers(kReaders);
  for (int reader = 0; reader < kReaders; ++reader) {
    readers.Submit([&, reader] {
      Rng rng(500 + reader);
      uint64_t last_sampled_epoch = ~uint64_t{0};
      std::vector<Sample> mine;
      // One trailing iteration after `done` so the final epoch is read.
      bool last_pass = false;
      while (true) {
        if (done.load(std::memory_order_acquire)) {
          if (last_pass) {
            break;
          }
          last_pass = true;
        }
        auto snap = latest.Load();
        std::vector<double> probe = {rng.Uniform(0.0, 60.0),
                                     rng.Uniform(0.0, 60.0)};
        auto result = snap->Classify(probe, /*want_score=*/true);
        if (!result.ok() ||
            snap->live_points() != snap->epoch() - snap->window_begin()) {
          ++failures;
          continue;
        }
        if (snap->epoch() != last_sampled_epoch) {
          last_sampled_epoch = snap->epoch();
          mine.push_back({std::move(snap), std::move(probe), result->kind});
        }
      }
      std::lock_guard<std::mutex> lock(samples_mu);
      for (Sample& s : mine) {
        samples.push_back(std::move(s));
      }
    });
  }

  ThreadPool apply_pool(2);
  Rng rng(77);
  // No ASSERTs until `done` is set: returning early would leave the
  // readers spinning.
  for (int b = 0; b < kBatches; ++b) {
    const size_t cells_before = det.num_cells();
    Status status = det.AddBatchParallel(
        testing::UniformPoints(&rng, kBatchPoints, 2, 0.0, 60.0), &apply_pool);
    for (uint32_t i = 0; status.ok() && b % 2 == 1 && i < kExpirePerBatch;
         ++i) {
      status = det.Remove(static_cast<uint32_t>(det.window_begin()));
    }
    if (!status.ok()) {
      ADD_FAILURE() << "batch " << b << ": " << status.message();
      break;
    }
    EXPECT_GT(det.num_cells(), cells_before);
    latest.Store(det.SnapshotNow());
  }
  done.store(true, std::memory_order_release);
  readers.WaitIdle();

  EXPECT_EQ(failures.load(), 0);
  ASSERT_FALSE(samples.empty());
  for (const Sample& s : samples) {
    PointSet live_plus_probe(2);
    for (uint64_t i = s.snap->window_begin(); i < s.snap->epoch(); ++i) {
      live_plus_probe.Add(s.snap->PointAt(static_cast<uint32_t>(i)));
    }
    live_plus_probe.Add(s.probe);
    auto oracle = DetectSequential(live_plus_probe, params);
    ASSERT_TRUE(oracle.ok());
    EXPECT_EQ(s.kind, oracle->kinds.back())
        << "epoch " << s.snap->epoch() << " probe (" << s.probe[0] << ", "
        << s.probe[1] << ")";
  }
}

}  // namespace
}  // namespace dbscout::core
