#include "sim/checkpoint.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <iterator>
#include <string>
#include <vector>

#include "mathx/stats.hpp"
#include "util/atomic_io.hpp"
#include "util/error.hpp"

namespace fadesched::sim {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "fadesched_checkpoint_" + name;
}

// Awkward, non-representable doubles so the hex-float round trip is
// actually exercised.
mathx::RunningStats AwkwardStats(double scale) {
  mathx::RunningStats stats;
  stats.Add(scale / 3.0);
  stats.Add(scale * 0.1);
  stats.Add(-scale / 7.0);
  return stats;
}

bool BitIdentical(const mathx::RunningStats& a,
                  const mathx::RunningStats& b) {
  return a.Count() == b.Count() &&
         std::memcmp(&a, &b, sizeof(mathx::RunningStats)) == 0;
}

SweepCheckpoint MakeCheckpoint() {
  SweepCheckpoint ck;
  ck.fingerprint = 0xdeadbeefcafef00dULL;
  for (int p = 0; p < 2; ++p) {
    PointCheckpoint point;
    point.x = 100.0 * (p + 1) + 1.0 / 3.0;
    point.seeds_done = 3 + static_cast<std::size_t>(p);
    point.failed_seeds = static_cast<std::size_t>(p);
    point.timed_out_seeds = static_cast<std::size_t>(p);
    point.complete = p == 0;
    for (const char* algo : {"ldp", "rle"}) {
      AlgoSummary summary;
      summary.algorithm = algo;
      const double scale = algo[0] == 'l' ? 17.0 : 0.003;
      summary.scheduled_links = AwkwardStats(scale);
      summary.claimed_rate = AwkwardStats(scale * 2);
      summary.measured_failed = AwkwardStats(scale * 3);
      summary.measured_throughput = AwkwardStats(scale * 5);
      summary.expected_failed = AwkwardStats(scale * 7);
      summary.expected_throughput = AwkwardStats(scale * 11);
      summary.runtime_ms = AwkwardStats(scale * 13);
      point.summaries.push_back(summary);
    }
    ck.points.push_back(point);
  }
  return ck;
}

// MakeCheckpoint() as serialized by builds that still wrote the retired
// per-algorithm format. It must never resume.
constexpr const char* kRetiredFormat = R"(fadesched-sweep-checkpoint 1
fingerprint deadbeefcafef00d
points 2
point 0 0x1.9155555555555p+6 seeds_done 3 failed 0 timed_out 0 complete 1
algos 2
algo ldp
stat scheduled_links 3 0x1.a562562562562p+0 0x1.062a9dc98e941p+5 -0x1.36db6db6db6dbp+1 0x1.6aaaaaaaaaaabp+2
stat claimed_rate 3 0x1.a562562562562p+1 0x1.062a9dc98e941p+7 -0x1.36db6db6db6dbp+2 0x1.6aaaaaaaaaaabp+3
stat measured_failed 3 0x1.3c09c09c09c0bp+2 0x1.26eff182c0669p+8 -0x1.d249249249249p+2 0x1.1p+4
stat measured_throughput 3 0x1.075d75d75d75dp+3 0x1.99a2968aeec74p+9 -0x1.8492492492492p+3 0x1.c555555555555p+4
stat expected_failed 3 0x1.70b60b60b60b5p+3 0x1.9171419ca252ap+10 -0x1.1p+4 0x1.3d55555555555p+5
stat expected_throughput 3 0x1.21b39b39b39b4p+4 0x1.efa89251118fep+11 -0x1.ab6db6db6db6ep+4 0x1.f2aaaaaaaaaabp+5
stat runtime_ms 3 0x1.565fe5fe5fe61p+4 0x1.5a2444541e3f8p+12 -0x1.f924924924925p+4 0x1.26aaaaaaaaaabp+6
algo rle
stat scheduled_links 3 0x1.30961bd054929p-12 0x1.11f343be7d999p-20 -0x1.c163c450bfed5p-12 0x1.0624dd2f1a9fcp-10
stat claimed_rate 3 0x1.30961bd054929p-11 0x1.11f343be7d999p-18 -0x1.c163c450bfed5p-11 0x1.0624dd2f1a9fcp-9
stat measured_failed 3 0x1.c8e129b87edcp-11 0x1.3431ac364d4cep-17 -0x1.510ad33c8ff2p-10 0x1.89374bc6a7efbp-9
stat measured_throughput 3 0x1.7cbba2c469b74p-10 0x1.ac0c19d9a44p-16 -0x1.18de5ab277f45p-9 0x1.47ae147ae147bp-8
stat expected_failed 3 0x1.0a8358564a005p-9 0x1.a37c7fbbb0533p-15 -0x1.89374bc6a7efap-9 0x1.cac083126e979p-8
stat expected_throughput 3 0x1.a2ce663e7449ap-9 0x1.02f7f60a12bb4p-13 -0x1.34f496f783f32p-8 0x1.6872b020c49bbp-7
stat runtime_ms 3 0x1.eef3ed32896e2p-9 0x1.69b32f7181d4bp-13 -0x1.6d210f819bf0dp-8 0x1.a9fbe76c8b439p-7
point 1 0x1.90aaaaaaaaaabp+7 seeds_done 4 failed 1 timed_out 1 complete 0
algos 2
algo ldp
stat scheduled_links 3 0x1.a562562562562p+0 0x1.062a9dc98e941p+5 -0x1.36db6db6db6dbp+1 0x1.6aaaaaaaaaaabp+2
stat claimed_rate 3 0x1.a562562562562p+1 0x1.062a9dc98e941p+7 -0x1.36db6db6db6dbp+2 0x1.6aaaaaaaaaaabp+3
stat measured_failed 3 0x1.3c09c09c09c0bp+2 0x1.26eff182c0669p+8 -0x1.d249249249249p+2 0x1.1p+4
stat measured_throughput 3 0x1.075d75d75d75dp+3 0x1.99a2968aeec74p+9 -0x1.8492492492492p+3 0x1.c555555555555p+4
stat expected_failed 3 0x1.70b60b60b60b5p+3 0x1.9171419ca252ap+10 -0x1.1p+4 0x1.3d55555555555p+5
stat expected_throughput 3 0x1.21b39b39b39b4p+4 0x1.efa89251118fep+11 -0x1.ab6db6db6db6ep+4 0x1.f2aaaaaaaaaabp+5
stat runtime_ms 3 0x1.565fe5fe5fe61p+4 0x1.5a2444541e3f8p+12 -0x1.f924924924925p+4 0x1.26aaaaaaaaaabp+6
algo rle
stat scheduled_links 3 0x1.30961bd054929p-12 0x1.11f343be7d999p-20 -0x1.c163c450bfed5p-12 0x1.0624dd2f1a9fcp-10
stat claimed_rate 3 0x1.30961bd054929p-11 0x1.11f343be7d999p-18 -0x1.c163c450bfed5p-11 0x1.0624dd2f1a9fcp-9
stat measured_failed 3 0x1.c8e129b87edcp-11 0x1.3431ac364d4cep-17 -0x1.510ad33c8ff2p-10 0x1.89374bc6a7efbp-9
stat measured_throughput 3 0x1.7cbba2c469b74p-10 0x1.ac0c19d9a44p-16 -0x1.18de5ab277f45p-9 0x1.47ae147ae147bp-8
stat expected_failed 3 0x1.0a8358564a005p-9 0x1.a37c7fbbb0533p-15 -0x1.89374bc6a7efap-9 0x1.cac083126e979p-8
stat expected_throughput 3 0x1.a2ce663e7449ap-9 0x1.02f7f60a12bb4p-13 -0x1.34f496f783f32p-8 0x1.6872b020c49bbp-7
stat runtime_ms 3 0x1.eef3ed32896e2p-9 0x1.69b32f7181d4bp-13 -0x1.6d210f819bf0dp-8 0x1.a9fbe76c8b439p-7
end
)";

TEST(CheckpointTest, SerializeDeserializeIsExact) {
  const SweepCheckpoint original = MakeCheckpoint();
  const MetricSweepCheckpoint restored =
      MetricSweepCheckpoint::Deserialize(original.ToGrid().Serialize());

  EXPECT_EQ(restored.fingerprint, original.fingerprint);
  EXPECT_EQ(restored.series, (std::vector<std::string>{"ldp", "rle"}));
  ASSERT_EQ(restored.metrics.size(), std::size(kSummaryStats));
  ASSERT_EQ(restored.points.size(), original.points.size());
  for (std::size_t p = 0; p < original.points.size(); ++p) {
    const PointCheckpoint& a = original.points[p];
    const MetricPointCheckpoint& b = restored.points[p];
    EXPECT_EQ(a.x, b.x);  // exact, not NEAR: hex floats round-trip bits
    EXPECT_EQ(a.seeds_done, b.seeds_done);
    EXPECT_EQ(a.failed_seeds, b.failed_seeds);
    EXPECT_EQ(a.timed_out_seeds, b.timed_out_seeds);
    EXPECT_EQ(a.complete, b.complete);
    ASSERT_EQ(b.stats.size(), a.summaries.size() * std::size(kSummaryStats));
    for (std::size_t s = 0; s < a.summaries.size(); ++s) {
      for (std::size_t m = 0; m < std::size(kSummaryStats); ++m) {
        EXPECT_EQ(restored.metrics[m], kSummaryStats[m].name);
        EXPECT_TRUE(BitIdentical(a.summaries[s].*kSummaryStats[m].field,
                                 b.stats[s * std::size(kSummaryStats) + m]));
      }
    }
  }
}

TEST(CheckpointTest, SerializationIsDeterministic) {
  const MetricSweepCheckpoint ck = MakeCheckpoint().ToGrid();
  EXPECT_EQ(ck.Serialize(), MetricSweepCheckpoint::Deserialize(
                                ck.Serialize()).Serialize());
}

TEST(CheckpointTest, SaveLoadRoundTrip) {
  const std::string path = TempPath("roundtrip.ck");
  const SweepCheckpoint original = MakeCheckpoint();
  original.Save(path);

  MetricSweepCheckpoint loaded;
  ASSERT_TRUE(MetricSweepCheckpoint::Load(path, original.fingerprint, loaded));
  EXPECT_EQ(loaded.Serialize(), original.ToGrid().Serialize());
  util::RemoveFile(path);
}

// A sweep saves after its first seed, while later points have not begun;
// those points carry empty accumulators.
TEST(CheckpointTest, LaterPointWithoutSummariesSaves) {
  const std::string path = TempPath("unstarted.ck");
  SweepCheckpoint original = MakeCheckpoint();
  original.points.resize(1);
  original.points.resize(3);
  original.points[1].x = 400.0;
  original.points[2].x = 500.0;
  original.Save(path);

  MetricSweepCheckpoint loaded;
  ASSERT_TRUE(MetricSweepCheckpoint::Load(path, original.fingerprint, loaded));
  ASSERT_EQ(loaded.points.size(), 3u);
  EXPECT_EQ(loaded.series, (std::vector<std::string>{"ldp", "rle"}));
  EXPECT_TRUE(BitIdentical(loaded.points[0].stats[2],
                           original.points[0].summaries[0].measured_failed));
  for (std::size_t p = 1; p < 3; ++p) {
    EXPECT_EQ(loaded.points[p].x, original.points[p].x);
    EXPECT_EQ(loaded.points[p].seeds_done, original.points[p].seeds_done);
    ASSERT_EQ(loaded.points[p].stats.size(), 2 * std::size(kSummaryStats));
    for (const mathx::RunningStats& stats : loaded.points[p].stats) {
      EXPECT_EQ(stats.Count(), 0u);
    }
  }
  util::RemoveFile(path);
}

TEST(CheckpointTest, PointsThatDisagreeOnAlgorithmsAreFatal) {
  SweepCheckpoint ck = MakeCheckpoint();
  ck.points[1].summaries[1].algorithm = "approx_logn";
  try {
    (void)ck.ToGrid();
    FAIL() << "expected HarnessError";
  } catch (const util::HarnessError& e) {
    EXPECT_EQ(e.kind(), util::ErrorKind::kFatal);
  }
}

TEST(CheckpointTest, LoadMissingFileReturnsFalse) {
  MetricSweepCheckpoint loaded;
  EXPECT_FALSE(MetricSweepCheckpoint::Load(TempPath("absent.ck"), 1, loaded));
}

TEST(CheckpointTest, LoadRefusesFingerprintMismatch) {
  const std::string path = TempPath("stale.ck");
  const SweepCheckpoint original = MakeCheckpoint();
  original.Save(path);

  MetricSweepCheckpoint loaded;
  try {
    MetricSweepCheckpoint::Load(path, original.fingerprint + 1, loaded);
    FAIL() << "expected HarnessError";
  } catch (const util::HarnessError& e) {
    EXPECT_EQ(e.kind(), util::ErrorKind::kFatal);
  }
  util::RemoveFile(path);
}

TEST(CheckpointTest, CorruptInputIsFatal) {
  for (const std::string& text :
       {std::string("not a checkpoint at all"), std::string(""),
        std::string("fadesched-checkpoint v99\nfingerprint "
                    "0000000000000000\npoints 0\nend\n"),
        MakeCheckpoint().ToGrid().Serialize().substr(0, 80),
        std::string(kRetiredFormat)}) {
    try {
      MetricSweepCheckpoint::Deserialize(text);
      FAIL() << "expected HarnessError for: " << text.substr(0, 40);
    } catch (const util::HarnessError& e) {
      EXPECT_EQ(e.kind(), util::ErrorKind::kFatal);
    }
  }
}

TEST(CheckpointTest, FingerprintIsSensitiveToEveryConfigKnob) {
  ExperimentConfig config;
  config.algorithms = {"ldp", "rle"};
  config.num_seeds = 5;
  config.trials = 1000;
  std::vector<double> xs = {100, 200};
  std::vector<ExperimentPoint> points(2);
  points[0].num_links = 100;
  points[1].num_links = 200;

  const std::uint64_t base = FingerprintSweep("sweep", xs, config, points);
  EXPECT_EQ(base, FingerprintSweep("sweep", xs, config, points));

  EXPECT_NE(base, FingerprintSweep("other", xs, config, points));

  auto tweaked = config;
  tweaked.trials = 2000;
  EXPECT_NE(base, FingerprintSweep("sweep", xs, tweaked, points));

  tweaked = config;
  tweaked.algorithms = {"rle", "ldp"};  // order matters
  EXPECT_NE(base, FingerprintSweep("sweep", xs, tweaked, points));

  tweaked = config;
  tweaked.num_seeds = 6;
  EXPECT_NE(base, FingerprintSweep("sweep", xs, tweaked, points));

  auto other_points = points;
  other_points[1].channel.alpha += 0.5;
  EXPECT_NE(base, FingerprintSweep("sweep", xs, config, other_points));
}

TEST(CheckpointTest, StatsRestoreContinuesWelfordExactly) {
  // Folding samples into restored moments must equal never having
  // serialized at all — this is what makes resume bit-identical.
  mathx::RunningStats live = AwkwardStats(3.7);
  mathx::RunningStats restored = mathx::RunningStats::FromRawMoments(
      live.Count(), live.RawMean(), live.RawM2(), live.Min(), live.Max());
  for (double x : {0.9, -2.4, 1.0 / 9.0}) {
    live.Add(x);
    restored.Add(x);
  }
  EXPECT_TRUE(BitIdentical(live, restored));
}

}  // namespace
}  // namespace fadesched::sim
