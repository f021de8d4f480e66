#include "api/multicast_switch.hpp"

#include "common/contracts.hpp"
#include "obs/metrics.hpp"

namespace brsmn::api {

MulticastSwitch::MulticastSwitch(std::size_t ports, Engine engine)
    : ports_(ports),
      engine_(engine),
      assignment_(ports),
      payloads_(ports),
      occupied_(ports, false) {
  if (engine == Engine::kUnrolled) {
    unrolled_ = std::make_unique<Brsmn>(ports);
  } else {
    feedback_ = std::make_unique<FeedbackBrsmn>(ports);
  }
}

void MulticastSwitch::submit(std::size_t input,
                             std::vector<std::uint8_t> payload,
                             const std::vector<std::size_t>& destinations) {
  BRSMN_EXPECTS(input < ports_);
  BRSMN_EXPECTS_MSG(!occupied_[input], "input already holds a cell");
  BRSMN_EXPECTS_MSG(!destinations.empty(),
                    "a cell needs at least one destination");
  // Validate everything up front so a rejected submit leaves the epoch
  // untouched (connect() would otherwise half-register the cell).
  std::vector<bool> seen(ports_, false);
  for (const std::size_t d : destinations) {
    BRSMN_EXPECTS(d < ports_);
    BRSMN_EXPECTS_MSG(!seen[d], "duplicate destination in one cell");
    BRSMN_EXPECTS_MSG(!assignment_.output_claimed(d),
                      "destination already claimed this epoch");
    seen[d] = true;
  }
  for (const std::size_t d : destinations) assignment_.connect(input, d);
  payloads_[input] = std::move(payload);
  occupied_[input] = true;
  ++pending_;
}

std::vector<Delivery> MulticastSwitch::route_epoch() {
  const std::size_t cells = pending_;
  std::vector<Delivery> deliveries;
  if (pending_ > 0) {
    RouteOptions options;
    options.engine = RouteEngine::Packed;
    options.metrics = metrics_;
    const RouteResult result = engine_ == Engine::kUnrolled
                                   ? unrolled_->route(assignment_, options)
                                   : feedback_->route(assignment_, options);
    last_stats_ = result.stats;
    for (std::size_t out = 0; out < ports_; ++out) {
      if (!result.delivered[out]) continue;
      const std::size_t src = *result.delivered[out];
      deliveries.push_back(Delivery{out, src, payloads_[src]});
    }
  } else {
    last_stats_ = RoutingStats{};
  }
  // Reset the epoch.
  assignment_ = MulticastAssignment(ports_);
  for (auto& p : payloads_) p.clear();
  std::fill(occupied_.begin(), occupied_.end(), false);
  pending_ = 0;
  if constexpr (obs::kEnabled) {
    if (metrics_ != nullptr) {
      metrics_->histogram("api.cells_per_epoch")
          .record(static_cast<double>(cells));
      metrics_->histogram("api.deliveries_per_epoch")
          .record(static_cast<double>(deliveries.size()));
    }
  }
  return deliveries;
}

}  // namespace brsmn::api
