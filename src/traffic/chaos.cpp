#include "traffic/chaos.hpp"

#include <algorithm>

#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "fault/fault_injector.hpp"

namespace brsmn::traffic {

ChaosSummary run_chaos(const ChaosConfig& config) {
  BRSMN_EXPECTS(config.max_epochs >= config.arrival_epochs);
  fault::FaultPlan plan = config.plan;
  if (plan.n == 0) plan.n = config.ports;  // empty plan = control run
  fault::FaultInjector injector(std::move(plan));

  QueuedMulticastSwitch::Config sw_config;
  sw_config.ports = config.ports;
  sw_config.metrics = config.metrics;
  sw_config.tracer = config.tracer;
  sw_config.faults = &injector;
  sw_config.retry = config.retry;
  sw_config.max_cell_age = config.max_cell_age;
  QueuedMulticastSwitch sw(sw_config);

  Rng rng(config.seed);
  ChaosSummary summary;
  for (std::size_t epoch = 0; epoch < config.max_epochs; ++epoch) {
    const bool arrivals_open = epoch < config.arrival_epochs;
    ChaosEpochRecord record;
    record.epoch = epoch;
    if (arrivals_open) {
      const std::vector<Offer> offers =
          draw_arrivals(config.ports, config.arrivals, rng);
      sw.offer_all(offers);
      record.offered_cells = offers.size();
    }
    const QueuedMulticastSwitch::EpochReport report = sw.step();
    record.delivered_copies = report.delivered_copies;
    record.completed_cells = report.completed_cells;
    record.dropped_cells = report.dropped_cells;
    record.backlog_cells = sw.backlog_cells();
    record.aborted = report.aborted;
    record.degraded = report.degraded;
    summary.epochs.push_back(record);
    summary.peak_backlog_cells =
        std::max(summary.peak_backlog_cells, record.backlog_cells);
    ++summary.epochs_run;
    if (!arrivals_open && sw.backlog_cells() == 0) {
      summary.drained = true;
      break;
    }
  }
  if (sw.backlog_cells() == 0) summary.drained = true;

  summary.offered_cells = sw.offered_cells();
  summary.completed_cells = sw.latency().completed_cells;
  summary.dropped_cells = sw.dropped_cells();
  summary.backlog_cells = sw.backlog_cells();
  summary.delivered_copies = sw.delivered_copies();
  summary.aborted_epochs = sw.aborted_epochs();
  summary.degraded_epochs = sw.degraded_epochs();
  summary.faults_detected = sw.router().faults_detected();
  summary.faults_recovered = sw.router().faults_recovered();
  summary.faults_gaveup = sw.router().faults_gaveup();
  BRSMN_ENSURES_MSG(summary.conserved(),
                    "chaos run lost or invented cells");
  return summary;
}

}  // namespace brsmn::traffic
