#include "vtime/cost_model.hpp"

#include <gtest/gtest.h>

#include "build/pipeline.hpp"
#include "graph/generators.hpp"

namespace parapll::vtime {
namespace {

TEST(CostModel, ZeroStatsCostsOnlyOverhead) {
  const CostModel model;
  const pll::PruneStats stats;
  EXPECT_DOUBLE_EQ(model.Units(stats), model.task_overhead);
}

TEST(CostModel, UnitsAreLinearInCounts) {
  const CostModel model;
  pll::PruneStats stats;
  stats.settled = 10;
  stats.relaxations = 20;
  stats.heap_pushes = 5;
  stats.probe_entries = 8;
  stats.labels_added = 3;
  const double expected = model.task_overhead + model.settle * 10 +
                          model.relax * 20 + model.push * 5 +
                          model.probe * 8 + model.append * 3;
  EXPECT_DOUBLE_EQ(model.Units(stats), expected);

  pll::PruneStats doubled = stats;
  doubled.settled *= 2;
  doubled.relaxations *= 2;
  doubled.heap_pushes *= 2;
  doubled.probe_entries *= 2;
  doubled.labels_added *= 2;
  EXPECT_DOUBLE_EQ(model.Units(doubled) - model.task_overhead,
                   2 * (model.Units(stats) - model.task_overhead));
}

TEST(CostModel, CalibrationReturnsPositiveFactor) {
  const graph::Graph g = graph::BarabasiAlbert(
      200, 3, graph::WeightOptions{graph::WeightModel::kUniform, 10}, 81);
  const CostModel model;
  double serial_seconds = 0.0;
  const double seconds_per_unit =
      build::CalibrateSecondsPerUnit(g, pll::OrderingPolicy::kDegree, model,
                                     &serial_seconds);
  EXPECT_GT(seconds_per_unit, 0.0);
  EXPECT_LT(seconds_per_unit, 1.0);  // a unit is far below a second
  EXPECT_GT(serial_seconds, 0.0);
}

}  // namespace
}  // namespace parapll::vtime
