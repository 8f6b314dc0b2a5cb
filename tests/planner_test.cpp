// Tests for the memory-aware strategy planner: prediction accuracy against
// measured peaks, feasibility filtering and ranking sanity.
#include <gtest/gtest.h>

#include "coupled/planner.h"

namespace cs::coupled {
namespace {

const fembem::CoupledSystem<double>& planner_system() {
  static auto sys =
      fembem::make_pipe_system<double>({.total_unknowns = 6000});
  return sys;
}

TEST(Planner, InputsAreGatheredFromSymbolicAnalysisOnly) {
  Config cfg;
  auto in = planner_inputs(planner_system(), cfg);
  EXPECT_EQ(in.nv, planner_system().nv());
  EXPECT_EQ(in.ns, planner_system().ns());
  EXPECT_GT(in.factor_entries, in.nv);  // at least the diagonal + fill
  EXPECT_GT(in.system_bytes, 0u);
  EXPECT_EQ(in.scalar_bytes, sizeof(double));
}

/// Predictions must land within a factor of ~2.5 of measured peaks (they
/// are first-order models over the dominant allocations).
class PredictionSweep : public ::testing::TestWithParam<Strategy> {};

TEST_P(PredictionSweep, PredictedPeakWithinFactorOfMeasured) {
  Config cfg;
  cfg.strategy = GetParam();
  cfg.n_c = 128;
  cfg.n_S = 512;
  cfg.n_b = 2;
  auto in = planner_inputs(planner_system(), cfg);
  const std::size_t predicted = predict_peak(cfg.strategy, in, cfg);
  auto stats = solve_coupled(planner_system(), cfg);
  ASSERT_TRUE(stats.success);
  const double ratio =
      static_cast<double>(predicted) / static_cast<double>(stats.peak_bytes);
  EXPECT_GT(ratio, 1.0 / 2.5) << "measured " << stats.peak_bytes
                              << " predicted " << predicted;
  EXPECT_LT(ratio, 2.5) << "measured " << stats.peak_bytes << " predicted "
                        << predicted;
}

INSTANTIATE_TEST_SUITE_P(
    CoreStrategies, PredictionSweep,
    ::testing::Values(Strategy::kBaselineCoupling, Strategy::kAdvancedCoupling,
                      Strategy::kMultiSolve, Strategy::kMultiSolveCompressed,
                      Strategy::kMultiFactorization,
                      Strategy::kMultiFactorizationCompressed),
    [](const ::testing::TestParamInfo<Strategy>& info) {
      std::string name = strategy_name(info.param);
      for (auto& c : name)
        if (c == '-') c = '_';
      return name;
    });

/// The same band with the worker count pinned, so a host with a single
/// core also runs the block-parallel multi-factorization path (whose
/// concurrently running jobs the prediction must charge).
class PinnedThreadsPredictionSweep : public ::testing::TestWithParam<Strategy> {
};

TEST_P(PinnedThreadsPredictionSweep, PredictedPeakWithinFactorOfMeasured) {
  Config cfg;
  cfg.strategy = GetParam();
  cfg.n_c = 128;
  cfg.n_S = 512;
  cfg.n_b = 2;
  cfg.num_threads = 4;
  auto in = planner_inputs(planner_system(), cfg);
  const std::size_t predicted = predict_peak(cfg.strategy, in, cfg);
  auto stats = solve_coupled(planner_system(), cfg);
  ASSERT_TRUE(stats.success);
  const double ratio =
      static_cast<double>(predicted) / static_cast<double>(stats.peak_bytes);
  EXPECT_GT(ratio, 1.0 / 2.5) << "measured " << stats.peak_bytes
                              << " predicted " << predicted;
  EXPECT_LT(ratio, 2.5) << "measured " << stats.peak_bytes << " predicted "
                        << predicted;
}

INSTANTIATE_TEST_SUITE_P(
    FourThreads, PinnedThreadsPredictionSweep,
    ::testing::Values(Strategy::kMultiFactorization,
                      Strategy::kMultiFactorizationCompressed),
    [](const ::testing::TestParamInfo<Strategy>& info) {
      std::string name = strategy_name(info.param);
      for (auto& c : name)
        if (c == '-') c = '_';
      return name;
    });

TEST(Planner, MultiFactorizationChargesEveryInflightJob) {
  // No solve: the prediction follows the executor's in-flight job count,
  // which depends only on the configured worker count and budget.
  for (Strategy s : {Strategy::kMultiFactorization,
                     Strategy::kMultiFactorizationCompressed}) {
    SCOPED_TRACE(strategy_name(s));
    Config cfg;
    cfg.n_b = 2;  // 4 jobs
    auto in = planner_inputs(planner_system(), cfg);
    const std::size_t job = multifacto_job_bytes(in, cfg);
    cfg.num_threads = 1;
    const std::size_t serial = predict_peak(s, in, cfg);
    cfg.num_threads = 4;
    EXPECT_EQ(predict_peak(s, in, cfg), serial + 3 * job);
    // More workers than jobs: still one job per (bi, bj) block at most.
    cfg.num_threads = 8;
    EXPECT_EQ(predict_peak(s, in, cfg), serial + 3 * job);

    // admissible_inflight keeps one unit of slack and degrades to a single
    // job when the headroom above the resident bytes holds <= 2 units.
    const std::size_t resident = serial - job;
    cfg.num_threads = 4;
    cfg.memory_budget = resident + 2 * job;
    EXPECT_EQ(predict_peak(s, in, cfg), serial);
    cfg.memory_budget = resident + 3 * job;
    EXPECT_EQ(predict_peak(s, in, cfg), serial + job);
    cfg.memory_budget = resident + 4 * job;
    EXPECT_EQ(predict_peak(s, in, cfg), serial + 2 * job);
  }
}

TEST(Planner, RelativeOrderingMatchesMeasurement) {
  // The planner's key qualitative predictions: baseline coupling is the
  // most memory-hungry; the compressed multi-solve the least among the
  // Schur-forming strategies.
  Config cfg;
  cfg.n_c = 128;
  cfg.n_S = 512;
  cfg.n_b = 2;
  auto in = planner_inputs(planner_system(), cfg);
  EXPECT_GT(predict_peak(Strategy::kBaselineCoupling, in, cfg),
            predict_peak(Strategy::kMultiSolve, in, cfg));
  EXPECT_GT(predict_peak(Strategy::kMultiSolve, in, cfg),
            predict_peak(Strategy::kMultiSolveCompressed, in, cfg));
  EXPECT_GT(predict_peak(Strategy::kMultiFactorization, in, cfg),
            predict_peak(Strategy::kMultiSolve, in, cfg));
}

TEST(Planner, UnlimitedBudgetRanksEverythingFeasible) {
  Config cfg;
  auto in = planner_inputs(planner_system(), cfg);
  auto entries = plan(in, cfg, 0);
  EXPECT_EQ(entries.size(), 7u);
  for (const auto& e : entries) EXPECT_TRUE(e.fits);
  // Ranked by time score.
  for (std::size_t k = 1; k < entries.size(); ++k)
    EXPECT_LE(entries[k - 1].time_score, entries[k].time_score);
}

TEST(Planner, TightBudgetPrefersCompressedMultiSolve) {
  Config cfg;
  cfg.n_c = 128;
  cfg.n_S = 512;
  auto in = planner_inputs(planner_system(), cfg);
  // A budget just above the compressed multi-solve prediction.
  const std::size_t budget =
      predict_peak(Strategy::kMultiSolveCompressed, in, cfg) * 11 / 10;
  auto entries = plan(in, cfg, budget);
  ASSERT_FALSE(entries.empty());
  // The first feasible entry must be a multi-solve family member, and the
  // baseline coupling must be infeasible.
  EXPECT_TRUE(entries.front().fits);
  bool baseline_fits = false;
  for (const auto& e : entries)
    if (e.strategy == Strategy::kBaselineCoupling) baseline_fits = e.fits;
  EXPECT_FALSE(baseline_fits);
}

TEST(Planner, PlanIsActionable) {
  // End-to-end: run the planner's top pick and confirm it succeeds within
  // its own predicted budget (with the model's safety factor).
  Config cfg;
  cfg.n_c = 128;
  cfg.n_S = 512;
  auto in = planner_inputs(planner_system(), cfg);
  auto entries = plan(in, cfg, 0);
  cfg.strategy = entries.front().strategy;
  cfg.memory_budget = entries.front().predicted_peak_bytes * 5 / 2;
  auto stats = solve_coupled(planner_system(), cfg);
  EXPECT_TRUE(stats.success) << strategy_name(cfg.strategy) << ": "
                             << stats.failure;
}

}  // namespace
}  // namespace cs::coupled
