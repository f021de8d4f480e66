#include "traffic/queued_switch.hpp"

#include <algorithm>

#include "common/contracts.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"

namespace brsmn::traffic {

namespace {

api::ResilientOptions router_options(
    const QueuedMulticastSwitch::Config& config) {
  api::ResilientOptions o;
  o.retry = config.retry;
  o.self_check = config.self_check;
  o.faults = config.faults;
  o.metrics = config.metrics;
  o.tracer = config.tracer;
  o.plan_cache = config.plan_cache;
  return o;
}

}  // namespace

QueuedMulticastSwitch::QueuedMulticastSwitch(const Config& config)
    : config_(config),
      router_(config.ports, router_options(config)),
      queues_(config.ports) {
  if constexpr (obs::kEnabled) {
    if (config_.metrics != nullptr) {
      obs::MetricRegistry& r = *config_.metrics;
      instruments_.admitted_cells =
          &r.histogram("switch.admitted_cells_per_epoch");
      instruments_.admitted_fanout =
          &r.histogram("switch.admitted_fanout_per_epoch");
      instruments_.cell_latency = &r.histogram("switch.cell_latency_epochs");
      instruments_.backlog_cells = &r.gauge("switch.backlog_cells");
      instruments_.backlog_copies = &r.gauge("switch.backlog_copies");
      instruments_.max_queue = &r.gauge("switch.max_queue_length");
      instruments_.epochs = &r.counter("switch.epochs");
      instruments_.delivered = &r.counter("switch.delivered_copies");
      instruments_.completed = &r.counter("switch.completed_cells");
      instruments_.dropped = &r.counter("switch.dropped_cells");
      instruments_.aborted = &r.counter("switch.aborted_epochs");
      instruments_.degraded = &r.counter("switch.degraded_epochs");
      instruments_.group_routes = &r.counter("switch.group_routes");
    }
  }
  if (config_.groups != nullptr) {
    BRSMN_EXPECTS_MSG(config_.groups->network_size() == config_.ports,
                      "group manager width must match the switch ports");
  }
}

void QueuedMulticastSwitch::offer(const Offer& offer) {
  BRSMN_EXPECTS(offer.input < ports());
  BRSMN_EXPECTS(!offer.destinations.empty());
  QueuedCell cell;
  cell.remaining = offer.destinations;
  cell.arrival = epoch_;
  queues_[offer.input].push_back(std::move(cell));
  ++offered_;
}

void QueuedMulticastSwitch::offer_all(const std::vector<Offer>& offers) {
  for (const Offer& o : offers) offer(o);
}

void QueuedMulticastSwitch::expire_old_cells(EpochReport& report) {
  if (config_.max_cell_age == 0) return;
  for (auto& queue : queues_) {
    // Arrival epochs are non-decreasing toward the tail, so expired
    // cells cluster at the head.
    while (!queue.empty() &&
           epoch_ - queue.front().arrival > config_.max_cell_age) {
      ++dropped_cells_;
      ++report.dropped_cells;
      dropped_copies_ += queue.front().remaining.size();
      queue.pop_front();
    }
  }
}

QueuedMulticastSwitch::EpochReport QueuedMulticastSwitch::step() {
  const std::size_t n = ports();
  EpochReport report;
  obs::TraceSpan epoch_span(config_.tracer, "switch.epoch");

  expire_old_cells(report);

  // Schedule: walk inputs round-robin from rr_pointer_, admitting from
  // each head cell the destinations not yet claimed this epoch.
  MulticastAssignment assignment(n);
  std::vector<bool> claimed(n, false);
  // For each admitted input, which destinations were served.
  std::vector<std::vector<std::size_t>> served(n);
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t input = (rr_pointer_ + k) % n;
    if (queues_[input].empty()) continue;
    QueuedCell& head = queues_[input].front();
    std::vector<std::size_t> take;
    for (const std::size_t d : head.remaining) {
      if (!claimed[d]) take.push_back(d);
    }
    if (take.empty()) continue;
    if (!config_.fanout_splitting && take.size() != head.remaining.size()) {
      continue;  // whole-cell discipline: all or nothing
    }
    for (const std::size_t d : take) {
      claimed[d] = true;
      assignment.connect(input, d);
    }
    served[input] = std::move(take);
    ++report.admitted_cells;
  }
  rr_pointer_ = (rr_pointer_ + 1) % n;

  // Route through the resilient fabric. A Failed outcome aborts the
  // epoch: nothing retires, the admitted cells stay queued (their
  // destinations will be re-admitted next epoch), so no cell is lost.
  if (report.admitted_cells > 0) {
    const api::RequestOutcome outcome = router_.route(assignment);
    if (outcome.outcome == api::RouteOutcome::Failed) {
      report.aborted = true;
      ++aborted_epochs_;
      for (auto& s : served) s.clear();
    } else {
      report.degraded =
          outcome.outcome == api::RouteOutcome::DeliveredDegraded;
      degraded_epochs_ += report.degraded;
      for (const auto& d : outcome.result->delivered) {
        report.delivered_copies += d.has_value();
      }
    }
  }

  // Retire served destinations; complete cells whose last copy left.
  for (std::size_t input = 0; input < n; ++input) {
    if (served[input].empty()) continue;
    QueuedCell& head = queues_[input].front();
    auto& rem = head.remaining;
    for (const std::size_t d : served[input]) {
      rem.erase(std::find(rem.begin(), rem.end(), d));
    }
    if (rem.empty()) {
      const std::size_t wait = epoch_ - head.arrival;
      latency_total_ += wait;
      latency_max_ = std::max(latency_max_, wait);
      ++completed_;
      ++report.completed_cells;
      queues_[input].pop_front();
      if (instruments_.cell_latency != nullptr) {
        instruments_.cell_latency->record(static_cast<double>(wait));
      }
    }
  }
  delivered_ += report.delivered_copies;
  ++epoch_;
  if constexpr (obs::kEnabled) {
    if (config_.tracer != nullptr) {
      config_.tracer->counter("switch.backlog_cells",
                              static_cast<double>(backlog_cells()));
      config_.tracer->counter("switch.backlog_copies",
                              static_cast<double>(backlog_copies()));
    }
  }
  if constexpr (obs::kEnabled) {
    if (config_.metrics != nullptr) {
      instruments_.admitted_cells->record(
          static_cast<double>(report.admitted_cells));
      instruments_.admitted_fanout->record(
          static_cast<double>(report.delivered_copies));
      instruments_.backlog_cells->set(static_cast<double>(backlog_cells()));
      instruments_.backlog_copies->set(static_cast<double>(backlog_copies()));
      instruments_.max_queue->set(static_cast<double>(max_queue_length()));
      instruments_.epochs->add(1);
      instruments_.delivered->add(report.delivered_copies);
      instruments_.completed->add(report.completed_cells);
      instruments_.dropped->add(report.dropped_cells);
      instruments_.aborted->add(report.aborted ? 1 : 0);
      instruments_.degraded->add(report.degraded ? 1 : 0);
    }
  }
  // Cell conservation (the chaos harness's core safety property).
  BRSMN_ENSURES_MSG(
      offered_ == completed_ + dropped_cells_ + backlog_cells(),
      "queued switch lost or invented a cell");
  return report;
}

QueuedMulticastSwitch::EpochReport QueuedMulticastSwitch::route_group(
    api::GroupId group) {
  BRSMN_EXPECTS_MSG(config_.groups != nullptr,
                    "route_group requires Config::groups");
  EpochReport report;
  obs::TraceSpan span(config_.tracer, "switch.group_route");
  const api::RequestOutcome outcome =
      router_.route_group(group, *config_.groups);
  if (outcome.outcome == api::RouteOutcome::Failed) {
    report.aborted = true;
    ++aborted_epochs_;
  } else {
    report.degraded = outcome.outcome == api::RouteOutcome::DeliveredDegraded;
    degraded_epochs_ += report.degraded;
    for (const auto& d : outcome.result->delivered) {
      report.delivered_copies += d.has_value();
    }
  }
  ++group_routes_;
  if constexpr (obs::kEnabled) {
    if (config_.metrics != nullptr) {
      instruments_.group_routes->add(1);
      instruments_.aborted->add(report.aborted ? 1 : 0);
      instruments_.degraded->add(report.degraded ? 1 : 0);
    }
  }
  return report;
}

std::size_t QueuedMulticastSwitch::backlog_cells() const {
  std::size_t count = 0;
  for (const auto& q : queues_) count += q.size();
  return count;
}

std::size_t QueuedMulticastSwitch::backlog_copies() const {
  std::size_t count = 0;
  for (const auto& q : queues_) {
    for (const auto& cell : q) count += cell.remaining.size();
  }
  return count;
}

std::size_t QueuedMulticastSwitch::max_queue_length() const {
  std::size_t longest = 0;
  for (const auto& q : queues_) longest = std::max(longest, q.size());
  return longest;
}

LatencySummary QueuedMulticastSwitch::latency() const {
  LatencySummary s;
  s.completed_cells = completed_;
  s.max = latency_max_;
  s.mean = completed_ == 0 ? 0.0
                           : static_cast<double>(latency_total_) /
                                 static_cast<double>(completed_);
  return s;
}

}  // namespace brsmn::traffic
