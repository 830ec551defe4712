#include "core/incremental.h"

#include <array>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "core/dbscout.h"
#include "datasets/synthetic.h"
#include "grid/cell_index.h"
#include "testutil.h"

namespace dbscout::core {
namespace {

Params MakeParams(double eps, int min_pts) {
  Params params;
  params.eps = eps;
  params.min_pts = min_pts;
  return params;
}

TEST(IncrementalTest, RejectsInvalidConfig) {
  EXPECT_FALSE(IncrementalDetector::Create(0, MakeParams(1.0, 5)).ok());
  EXPECT_FALSE(IncrementalDetector::Create(2, MakeParams(0.0, 5)).ok());
  EXPECT_FALSE(IncrementalDetector::Create(2, MakeParams(1.0, 0)).ok());
  EXPECT_FALSE(
      IncrementalDetector::Create(kMaxDims + 1, MakeParams(1.0, 5)).ok());
}

TEST(IncrementalTest, RejectsBadPoints) {
  auto det = IncrementalDetector::Create(2, MakeParams(1.0, 5));
  ASSERT_TRUE(det.ok());
  const double wrong_dims[] = {1.0};
  EXPECT_FALSE(det->Add({wrong_dims, 1}).ok());
  const double nan_point[] = {1.0, std::nan("")};
  EXPECT_FALSE(det->Add({nan_point, 2}).ok());
}

TEST(IncrementalTest, SinglePointLifecycle) {
  auto det = IncrementalDetector::Create(1, MakeParams(1.0, 2));
  ASSERT_TRUE(det.ok());
  const double p0[] = {0.0};
  auto idx = det->Add({p0, 1});
  ASSERT_TRUE(idx.ok());
  EXPECT_EQ(*idx, 0u);
  EXPECT_EQ(det->KindOf(0), PointKind::kOutlier);
  // A second point within eps promotes both to core (count 2 >= minPts 2).
  const double p1[] = {0.5};
  ASSERT_TRUE(det->Add({p1, 1}).ok());
  EXPECT_EQ(det->KindOf(0), PointKind::kCore);
  EXPECT_EQ(det->KindOf(1), PointKind::kCore);
  EXPECT_TRUE(det->Outliers().empty());
}

TEST(IncrementalTest, OutlierRescuedByLaterInsertions) {
  // A lone point is an outlier until enough mass arrives nearby to form a
  // dense region that covers it.
  auto det = IncrementalDetector::Create(1, MakeParams(1.0, 4));
  ASSERT_TRUE(det.ok());
  const double lone[] = {0.9};
  ASSERT_TRUE(det->Add({lone, 1}).ok());
  EXPECT_EQ(det->KindOf(0), PointKind::kOutlier);
  for (int i = 0; i < 4; ++i) {
    const double p[] = {0.0};
    ASSERT_TRUE(det->Add({p, 1}).ok());
  }
  // The stack of four at 0.0 plus the lone point at 0.9: stack counts are
  // 5 >= 4 -> core; the lone point (count 5, also >= 4) becomes core too.
  EXPECT_EQ(det->KindOf(0), PointKind::kCore);
}

class IncrementalEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<double, int, uint64_t>> {};

TEST_P(IncrementalEquivalenceTest, MatchesBatchDetectionAtEveryCheckpoint) {
  const auto [eps, min_pts, seed] = GetParam();
  Rng rng(seed);
  const PointSet stream = testing::ClusteredPoints(&rng, 600, 2, 3, 0.25);
  auto det = IncrementalDetector::Create(2, MakeParams(eps, min_pts));
  ASSERT_TRUE(det.ok());
  const Params batch_params = MakeParams(eps, min_pts);
  for (size_t i = 0; i < stream.size(); ++i) {
    ASSERT_TRUE(det->Add(stream[i]).ok());
    // Checkpoint at several prefixes, including awkward ones.
    if (i == 0 || i == 7 || i == 99 || i == 350 || i + 1 == stream.size()) {
      PointSet prefix(2);
      for (size_t j = 0; j <= i; ++j) {
        prefix.Add(stream[j]);
      }
      auto batch = DetectSequential(prefix, batch_params);
      ASSERT_TRUE(batch.ok());
      EXPECT_EQ(det->kinds(), batch->kinds) << "prefix " << i + 1;
      EXPECT_EQ(det->Outliers(), batch->outliers);
      EXPECT_EQ(det->num_core(), batch->num_core);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, IncrementalEquivalenceTest,
    ::testing::Values(std::make_tuple(0.8, 4, 11u),
                      std::make_tuple(1.5, 8, 12u),
                      std::make_tuple(3.0, 2, 13u),
                      std::make_tuple(0.5, 15, 14u)),
    [](const auto& info) {
      return "case" + std::to_string(info.index);
    });

TEST(IncrementalTest, AddBatchEqualsPointwiseAdds) {
  const auto data = datasets::Blobs(800, 0.02, 21);
  auto a = IncrementalDetector::Create(2, MakeParams(0.7, 5));
  auto b = IncrementalDetector::Create(2, MakeParams(0.7, 5));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(a->AddBatch(data.points).ok());
  for (size_t i = 0; i < data.points.size(); ++i) {
    ASSERT_TRUE(b->Add(data.points[i]).ok());
  }
  EXPECT_EQ(a->kinds(), b->kinds());
}

TEST(IncrementalTest, InsertionOrderDoesNotMatter) {
  Rng rng(31);
  const PointSet stream = testing::ClusteredPoints(&rng, 300, 2, 2, 0.3);
  const Params params = MakeParams(1.2, 6);
  auto forward = IncrementalDetector::Create(2, params);
  auto backward = IncrementalDetector::Create(2, params);
  ASSERT_TRUE(forward.ok());
  ASSERT_TRUE(backward.ok());
  for (size_t i = 0; i < stream.size(); ++i) {
    ASSERT_TRUE(forward->Add(stream[i]).ok());
    ASSERT_TRUE(backward->Add(stream[stream.size() - 1 - i]).ok());
  }
  // Same multiset of points -> same number of outliers/core points (the
  // index labels differ because the order differs).
  EXPECT_EQ(forward->Outliers().size(), backward->Outliers().size());
  EXPECT_EQ(forward->num_core(), backward->num_core());
}

TEST(IncrementalTest, RemoveRejectsUnknownAndDoubleRemoves) {
  auto det = IncrementalDetector::Create(1, MakeParams(1.0, 2));
  ASSERT_TRUE(det.ok());
  EXPECT_EQ(det->Remove(0).code(), StatusCode::kInvalidArgument);  // never
  const double p[] = {0.0};
  ASSERT_TRUE(det->Add({p, 1}).ok());
  ASSERT_TRUE(det->Add({p, 1}).ok());
  // Removal is prefix-only: id 1 is live, but the window starts at 0.
  EXPECT_EQ(det->Remove(1).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(det->live_points(), 2u);
  ASSERT_TRUE(det->Remove(0).ok());
  EXPECT_EQ(det->Remove(0).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(det->window_begin(), 1u);
}

TEST(IncrementalTest, RemoveUpdatesLivenessNotEpoch) {
  auto det = IncrementalDetector::Create(1, MakeParams(1.0, 3));
  ASSERT_TRUE(det.ok());
  for (int i = 0; i < 4; ++i) {
    const double p[] = {static_cast<double>(i) * 10.0};  // isolated outliers
    ASSERT_TRUE(det->Add({p, 1}).ok());
  }
  ASSERT_TRUE(det->Remove(0).ok());
  EXPECT_EQ(det->epoch(), 4u);  // indices never rewind
  EXPECT_EQ(det->window_begin(), 1u);
  EXPECT_EQ(det->live_points(), 3u);
  EXPECT_FALSE(det->IsAlive(0));
  EXPECT_TRUE(det->IsAlive(1));
  // Removed points drop out of the outlier list but keep their last label.
  EXPECT_EQ(det->KindOf(0), PointKind::kOutlier);
  EXPECT_EQ(det->Outliers(), (std::vector<uint32_t>{1, 2, 3}));
  auto snap = det->SnapshotNow();
  EXPECT_EQ(snap->window_begin(), 1u);
  EXPECT_EQ(snap->live_points(), 3u);
  EXPECT_FALSE(snap->IsAlive(0));
  EXPECT_EQ(snap->Outliers(), (std::vector<uint32_t>{1, 2, 3}));
}

// Layout (1D, eps = 1, minPts = 6): four copies of A at 0.0, one helper at
// -0.5, one border point d at 0.95. Each A reaches all six points (count 6,
// core); the helper (count 5) and d (count 5) are border, covered only by
// the A cores. Ids: A = 0..3, helper = 4, d = 5; with `d_first`, d = 0,
// A = 1..4, helper = 5 (labels do not depend on insertion order).
void BuildCoveredCluster(IncrementalDetector* det, bool d_first = false) {
  const double a[] = {0.0};
  const double helper[] = {-0.5};
  const double d[] = {0.95};
  if (d_first) {
    ASSERT_TRUE(det->Add({d, 1}).ok());
  }
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(det->Add({a, 1}).ok());
  }
  ASSERT_TRUE(det->Add({helper, 1}).ok());
  if (!d_first) {
    ASSERT_TRUE(det->Add({d, 1}).ok());
  }
  ASSERT_EQ(det->num_core(), 4u);
  ASSERT_TRUE(det->Outliers().empty());
}

TEST(IncrementalTest, RemoveCoreDemotesToNonCoreAndUncoversBorders) {
  auto det = IncrementalDetector::Create(1, MakeParams(1.0, 6));
  ASSERT_TRUE(det.ok());
  BuildCoveredCluster(&*det);
  // Removing one A drops every remaining count below minPts: the three
  // surviving A copies demote core -> non-core, and with no cores left the
  // whole live set falls to outlier.
  ASSERT_TRUE(det->Remove(0).ok());
  EXPECT_EQ(det->num_core(), 0u);
  EXPECT_EQ(det->Outliers(), (std::vector<uint32_t>{1, 2, 3, 4, 5}));
}

TEST(IncrementalTest, RemoveBorderCanDemoteCoresItSupported) {
  auto det = IncrementalDetector::Create(1, MakeParams(1.0, 6));
  ASSERT_TRUE(det.ok());
  BuildCoveredCluster(&*det, /*d_first=*/true);
  ASSERT_EQ(det->KindOf(0), PointKind::kBorder);
  // d is only a border point, but its neighbor count is what keeps the A
  // copies on the minPts threshold: removing it demotes all four cores and
  // the helper falls border -> outlier with them.
  ASSERT_TRUE(det->Remove(0).ok());
  EXPECT_EQ(det->num_core(), 0u);
  EXPECT_EQ(det->Outliers(), (std::vector<uint32_t>{1, 2, 3, 4, 5}));
}

TEST(IncrementalTest, RemoveThenReinsertRebuildsTheCluster) {
  auto det = IncrementalDetector::Create(1, MakeParams(1.0, 6));
  ASSERT_TRUE(det.ok());
  BuildCoveredCluster(&*det);
  ASSERT_TRUE(det->Remove(0).ok());  // one copy of A
  ASSERT_EQ(det->num_core(), 0u);
  // A new copy of A restores every count; labels recover exactly.
  const double a[] = {0.0};
  ASSERT_TRUE(det->Add({a, 1}).ok());  // id 6
  EXPECT_EQ(det->num_core(), 4u);
  EXPECT_EQ(det->KindOf(4), PointKind::kBorder);
  EXPECT_EQ(det->KindOf(5), PointKind::kBorder);
  EXPECT_TRUE(det->Outliers().empty());
}

TEST(IncrementalTest, DuplicateFlood) {
  auto det = IncrementalDetector::Create(3, MakeParams(0.5, 10));
  ASSERT_TRUE(det.ok());
  const double p[] = {1.0, 2.0, 3.0};
  for (int i = 0; i < 25; ++i) {
    ASSERT_TRUE(det->Add({p, 3}).ok());
  }
  EXPECT_EQ(det->num_core(), 25u);
  EXPECT_TRUE(det->Outliers().empty());
  EXPECT_EQ(det->num_cells(), 1u);
}

// A snapshot answers from its freeze alone. Cells created after it (enough
// to grow the cell index at least twice) and point lists emptied after it
// by window expiry must not reach any of its answers, and a fresh
// snapshot must see them (so the comparison below can fail).
TEST(IncrementalTest, SnapshotIsIsolatedFromLaterCellsAndRemovals) {
  auto det = IncrementalDetector::Create(2, MakeParams(1.0, 4));
  ASSERT_TRUE(det.ok());
  Rng rng(41);
  // Scattered noise first (ids below kNoise, mostly alone in their cells),
  // then a dense blob; the prefix removal below empties the noise cells.
  constexpr size_t kNoise = 40;
  ASSERT_TRUE(
      det->AddBatch(testing::UniformPoints(&rng, kNoise, 2, 0.0, 12.0)).ok());
  PointSet blob(2);
  for (int i = 0; i < 120; ++i) {
    blob.Add(std::vector<double>{rng.Gaussian(6.0, 0.8),
                                 rng.Gaussian(6.0, 0.8)});
  }
  ASSERT_TRUE(det->AddBatch(blob).ok());
  const auto snap = det->SnapshotNow();
  const uint64_t epoch = snap->epoch();
  const size_t cells_at_freeze = snap->num_cells();

  // Probes over the frozen region and the region that fills in later.
  std::vector<std::array<double, 2>> probes;
  for (double x = -1.0; x < 40.0; x += 0.9) {
    for (double y = -1.0; y < 40.0; y += 0.9) {
      probes.push_back({x, y});
    }
  }
  auto classify_all = [&](const IncrementalSnapshot& s) {
    std::vector<ProbeResult> out;
    for (const auto& p : probes) {
      auto r = s.Classify(p, /*want_score=*/true);
      EXPECT_TRUE(r.ok());
      out.push_back(r.ok() ? *r : ProbeResult{});
    }
    return out;
  };
  auto nearest_all = [&] {
    std::vector<double> out;
    uint64_t comps = 0;
    for (uint32_t i = 0; i < epoch; ++i) {
      out.push_back(snap->NearestCoreDistance(i, &comps));
    }
    out.push_back(static_cast<double>(comps));
    return out;
  };
  const auto probes_before = classify_all(*snap);
  const auto nearest_before = nearest_all();
  const auto outliers_before = snap->Outliers();
  const auto kinds_before = snap->Kinds();

  // The index keeps its load at most 1/2, so its capacity at the freeze
  // was at most 4 * cells + K (K = initial capacity); once it holds
  // 8 * cells + 2K keys, its capacity is at least four times that: two
  // growths.
  while (det->num_cells() <
         8 * cells_at_freeze + 2 * grid::CellIndex::kInitialCapacity) {
    ASSERT_TRUE(
        det->AddBatch(testing::UniformPoints(&rng, 200, 2, -1.0, 40.0)).ok());
  }
  for (uint32_t id = 0; id < kNoise + 30; ++id) {
    ASSERT_TRUE(det->Remove(id).ok());
  }

  EXPECT_EQ(snap->epoch(), epoch);
  EXPECT_EQ(snap->num_cells(), cells_at_freeze);
  EXPECT_EQ(snap->Outliers(), outliers_before);
  EXPECT_EQ(snap->Kinds(), kinds_before);
  EXPECT_EQ(nearest_all(), nearest_before);
  const auto probes_after = classify_all(*snap);
  ASSERT_EQ(probes_after.size(), probes_before.size());
  for (size_t i = 0; i < probes.size(); ++i) {
    EXPECT_EQ(probes_after[i].kind, probes_before[i].kind) << i;
    EXPECT_EQ(probes_after[i].score, probes_before[i].score) << i;
    EXPECT_EQ(probes_after[i].distance_comps,
              probes_before[i].distance_comps)
        << i;
  }

  const auto fresh = det->SnapshotNow();
  EXPECT_GT(fresh->num_cells(), cells_at_freeze);
  const auto probes_fresh = classify_all(*fresh);
  size_t changed = 0;
  for (size_t i = 0; i < probes.size(); ++i) {
    changed += probes_fresh[i].kind != probes_before[i].kind ||
               probes_fresh[i].distance_comps !=
                   probes_before[i].distance_comps;
  }
  EXPECT_GT(changed, probes.size() / 4);
}

}  // namespace
}  // namespace dbscout::core
