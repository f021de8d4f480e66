// The chaos harness: seeded fault schedules against the queued switch,
// asserting cell conservation, recovery after fault windows close, and
// explicit (never silent) loss under the drop policy.
#include "traffic/chaos.hpp"

#include <gtest/gtest.h>

#include "common/contracts.hpp"
#include "fault/fault_plan.hpp"
#include "obs/metrics.hpp"

namespace brsmn::traffic {
namespace {

ChaosConfig base_config() {
  ChaosConfig config;
  config.ports = 16;
  config.seed = 21;
  config.arrival_epochs = 24;
  config.max_epochs = 200;
  config.arrivals.arrival_probability = 0.6;
  config.arrivals.fanout.min_fanout = 1;
  config.arrivals.fanout.max_fanout = 4;
  return config;
}

fault::FaultSpec transient_flip(int level, PassKind pass, int stage,
                                std::size_t index, fault::Activation when) {
  fault::FaultSpec f;
  f.kind = fault::FaultKind::TransientFlip;
  f.level = level;
  f.pass = pass;
  f.stage = stage;
  f.index = index;
  f.when = when;
  return f;
}

TEST(Chaos, ControlRunDrainsCleanly) {
  const ChaosSummary summary = run_chaos(base_config());
  EXPECT_TRUE(summary.conserved());
  EXPECT_TRUE(summary.drained);
  EXPECT_EQ(summary.backlog_cells, 0u);
  EXPECT_GT(summary.offered_cells, 0u);
  EXPECT_EQ(summary.completed_cells, summary.offered_cells);
  EXPECT_EQ(summary.dropped_cells, 0u);
  EXPECT_EQ(summary.aborted_epochs, 0u);
  EXPECT_EQ(summary.degraded_epochs, 0u);
  EXPECT_EQ(summary.faults_detected, 0u);
  EXPECT_EQ(summary.epochs.size(), summary.epochs_run);
}

TEST(Chaos, TransientWindowRecoversAndDrains) {
  // Flips active for a band of route ordinals early in the run: the
  // resilient router detects and retries through them, the switch keeps
  // every cell, and once the window closes the backlog drains.
  ChaosConfig config = base_config();
  config.plan.n = config.ports;
  // Periodic flips so retries (which consume route ordinals) land on
  // clean ordinals in between.
  config.plan.faults.push_back(transient_flip(
      1, PassKind::Scatter, 1, 2, fault::Activation{0, 40, 3}));
  config.plan.faults.push_back(transient_flip(
      2, PassKind::Quasisort, 1, 5, fault::Activation{1, 40, 4}));

  const ChaosSummary summary = run_chaos(config);
  EXPECT_TRUE(summary.conserved());
  EXPECT_TRUE(summary.drained);
  EXPECT_EQ(summary.dropped_cells + summary.completed_cells,
            summary.offered_cells);
  EXPECT_EQ(summary.dropped_cells, 0u);  // no drop policy configured
  EXPECT_EQ(summary.aborted_epochs, 0u);  // retry clears each flip
  // The schedule is dense enough that some epoch must have hit a flip.
  EXPECT_GT(summary.faults_detected, 0u);
  EXPECT_GT(summary.faults_recovered, 0u);
  EXPECT_EQ(summary.faults_gaveup, 0u);
}

TEST(Chaos, DeadLinkWindowAbortsThenHeals) {
  // An always-on dead link for the first chunk of the run defeats every
  // fallback whenever the scheduler admits traffic on that line, so
  // those epochs abort and the backlog grows. The drop policy bounds the
  // damage, and after the window closes the switch must drain. Every
  // lost cell is accounted for.
  ChaosConfig config = base_config();
  config.seed = 5;
  config.max_cell_age = 3;
  config.plan.n = config.ports;
  fault::FaultSpec dead;
  dead.kind = fault::FaultKind::DeadLink;
  dead.level = 1;
  dead.index = 0;
  // Aborted epochs burn several route ordinals (the ladder retries), so
  // a generous window keeps the fault pinned through the early epochs.
  dead.when = fault::Activation{0, 80};
  config.plan.faults.push_back(dead);

  obs::MetricRegistry registry;
  config.metrics = &registry;
  const ChaosSummary summary = run_chaos(config);
  EXPECT_TRUE(summary.conserved());
  EXPECT_TRUE(summary.drained);
  EXPECT_GT(summary.aborted_epochs, 0u);
  EXPECT_GT(summary.faults_detected, 0u);
  EXPECT_GT(summary.faults_gaveup, 0u);
  // Cells stranded behind the dead link age out; the loss is explicit.
  EXPECT_GT(summary.dropped_cells, 0u);
  EXPECT_EQ(summary.completed_cells + summary.dropped_cells,
            summary.offered_cells);
  EXPECT_GT(summary.peak_backlog_cells, 0u);
  if constexpr (obs::kEnabled) {
    EXPECT_EQ(registry.counter("fault.detected").value(),
              summary.faults_detected);
    EXPECT_EQ(registry.counter("switch.dropped_cells").value(),
              summary.dropped_cells);
    EXPECT_EQ(registry.counter("switch.aborted_epochs").value(),
              summary.aborted_epochs);
  }
}

TEST(Chaos, SameSeedSameStory) {
  ChaosConfig config = base_config();
  config.plan.n = config.ports;
  config.plan.faults.push_back(transient_flip(
      1, PassKind::Scatter, 2, 3, fault::Activation{0, 30, 2}));

  const ChaosSummary a = run_chaos(config);
  const ChaosSummary b = run_chaos(config);
  EXPECT_EQ(a.epochs_run, b.epochs_run);
  EXPECT_EQ(a.offered_cells, b.offered_cells);
  EXPECT_EQ(a.completed_cells, b.completed_cells);
  EXPECT_EQ(a.dropped_cells, b.dropped_cells);
  EXPECT_EQ(a.delivered_copies, b.delivered_copies);
  EXPECT_EQ(a.aborted_epochs, b.aborted_epochs);
  EXPECT_EQ(a.degraded_epochs, b.degraded_epochs);
  EXPECT_EQ(a.faults_detected, b.faults_detected);
  ASSERT_EQ(a.epochs.size(), b.epochs.size());
  for (std::size_t i = 0; i < a.epochs.size(); ++i) {
    EXPECT_EQ(a.epochs[i].offered_cells, b.epochs[i].offered_cells) << i;
    EXPECT_EQ(a.epochs[i].backlog_cells, b.epochs[i].backlog_cells) << i;
    EXPECT_EQ(a.epochs[i].aborted, b.epochs[i].aborted) << i;
  }
}

TEST(Chaos, RejectsMismatchedPlanWidth) {
  ChaosConfig config = base_config();
  config.plan.n = config.ports * 2;
  EXPECT_THROW(run_chaos(config), ContractViolation);
}

}  // namespace
}  // namespace brsmn::traffic
