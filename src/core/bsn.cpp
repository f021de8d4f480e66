#include "core/bsn.hpp"

#include "common/contracts.hpp"
#include "core/quasisort.hpp"
#include "core/scatter.hpp"
#include "fault/fault_injector.hpp"
#include "fault/fault_report.hpp"
#include "obs/fabric_heatmap.hpp"
#include "obs/route_probe.hpp"

namespace brsmn {

namespace {

/// The probe of a route observed by nothing (Bsn::route without one).
const obs::RouteProbe& no_probe() {
  static const obs::RouteProbe probe;
  return probe;
}

}  // namespace

TagCounts count_tags(const std::vector<LineValue>& lines) {
  TagCounts c;
  for (const auto& lv : lines) {
    switch (lv.tag) {
      case Tag::Zero: ++c.zeros; break;
      case Tag::One: ++c.ones; break;
      case Tag::Alpha: ++c.alphas; break;
      case Tag::Eps:
      case Tag::Eps0:
      case Tag::Eps1: ++c.epses; break;
    }
  }
  return c;
}

Bsn::Bsn(std::size_t n) : scatter_(n), quasisort_(n) {
  BRSMN_EXPECTS_MSG(n >= 4, "the smallest BSN used by a BRSMN is 4 x 4");
}

Bsn::Result Bsn::route(std::vector<LineValue> inputs,
                       std::uint64_t& next_copy_id, RoutingStats* stats,
                       const obs::RouteProbe* probe, const BsnExplain* explain,
                       const fault::PassSeam* seam, const BsnHeat* heat) {
  if (seam == nullptr) {
    return route_impl(std::move(inputs), next_copy_id, stats, probe, explain,
                      nullptr, heat, nullptr);
  }
  // Track how far the route got, so a thrown invariant names the region
  // (and locate.cpp knows which grids are trustworthy).
  fault::DetectPoint progress;
  progress.level = seam->level;
  progress.pass = PassKind::Scatter;
  progress.fabric_settled = false;
  progress.block_base = seam->line_base;
  progress.block_size = size();
  try {
    return route_impl(std::move(inputs), next_copy_id, stats, probe, explain,
                      seam, heat, &progress);
  } catch (fault::FaultDetected&) {
    throw;
  } catch (const ContractViolation& e) {
    fault::FaultReport report;
    report.n = seam->net_width != 0 ? seam->net_width : size();
    report.route = seam->route;
    report.at = progress;
    report.check = e.what();
    throw fault::FaultDetected(std::move(report));
  }
}

Bsn::Result Bsn::route_impl(std::vector<LineValue> inputs,
                            std::uint64_t& next_copy_id, RoutingStats* stats,
                            const obs::RouteProbe* probe,
                            const BsnExplain* explain,
                            const fault::PassSeam* seam, const BsnHeat* heat,
                            fault::DetectPoint* progress) {
  const std::size_t n = size();
  BRSMN_EXPECTS(inputs.size() == n);
  const obs::RouteProbe& obs_probe = probe != nullptr ? *probe : no_probe();
  obs::FabricHeatmap* heatmap =
      heat != nullptr && heat->map != nullptr ? heat->map : nullptr;

  const TagCounts in = count_tags(inputs);
  BRSMN_EXPECTS_MSG(in.zeros + in.alphas <= n / 2,
                    "BSN input violates n0 + n_alpha <= n/2 (Eq. 2)");
  BRSMN_EXPECTS_MSG(in.ones + in.alphas <= n / 2,
                    "BSN input violates n1 + n_alpha <= n/2 (Eq. 2)");
  std::vector<Tag> tags(n);
  for (std::size_t i = 0; i < n; ++i) {
    tags[i] = inputs[i].tag;
    BRSMN_EXPECTS_MSG(inputs[i].empty() == !inputs[i].packet.has_value(),
                      "occupied lines must carry a packet, eps lines none");
    if (inputs[i].packet) {
      BRSMN_EXPECTS_MSG(!inputs[i].packet->stream.empty() &&
                            inputs[i].packet->stream.front() == tags[i],
                        "line tag must equal the packet's current a_0");
    }
  }

  if (explain != nullptr) explain->scatter.record_input_tags(tags);

  // Pass 1: scatter — eliminate every α (paper Theorem 2).
  obs::PhaseScope scatter_scope(obs_probe, obs::Phase::Scatter,
                                "bsn.scatter.config");
  const ScatterNodeValue root =
      configure_scatter(scatter_, tags, 0, stats,
                        explain != nullptr ? &explain->scatter : nullptr);
  scatter_scope.end();
  if (seam != nullptr) seam->apply_local(scatter_, PassKind::Scatter);
  if (progress != nullptr) progress->fabric_settled = true;
  // Eq. (3): n_alpha <= n_eps, so eps dominates at the root (when the two
  // counts tie, the surplus is 0 and the type label is immaterial).
  BRSMN_ENSURES_MSG(root.type == Tag::Eps || root.surplus == 0,
                    "Eq. (3) guarantees eps dominates at the BSN root");
  ScatterExec exec{next_copy_id, stats};
  Result result;
  obs::PhaseScope scatter_data_scope(obs_probe, obs::Phase::Datapath,
                                     "bsn.scatter.datapath");
  result.scattered = scatter_.propagate(
      std::move(inputs),
      [&exec](const SwitchContext& ctx, SwitchSetting s, LineValue a,
              LineValue b) {
        return apply_scatter_switch(ctx, s, std::move(a), std::move(b), exec);
      },
      [&](int stage, const std::vector<LineValue>& ls) {
        if (heatmap != nullptr) {
          heatmap->record_lines(heat->level, PassKind::Scatter, stage, ls,
                                heat->line_offset);
        }
      });
  scatter_data_scope.end();
  next_copy_id = exec.next_copy_id;

  const TagCounts mid = count_tags(result.scattered);
  BRSMN_ENSURES_MSG(mid.alphas == 0, "scatter must eliminate all alphas");
  BRSMN_ENSURES(mid.zeros == in.zeros + in.alphas);   // Eq. (4)
  BRSMN_ENSURES(mid.ones == in.ones + in.alphas);     // Eq. (4)
  BRSMN_ENSURES(mid.epses == in.epses - in.alphas);   // Eq. (4)

  // Pass 2: quasisort — ε-divide, then Theorem-1 bit sort on b2.
  if (progress != nullptr) {
    progress->pass = PassKind::Quasisort;
    progress->fabric_settled = false;
  }
  std::vector<Tag> scattered_tags(n);
  for (std::size_t i = 0; i < n; ++i) scattered_tags[i] = result.scattered[i].tag;
  if (explain != nullptr) explain->quasisort.record_input_tags(scattered_tags);
  obs::PhaseScope divide_scope(obs_probe, obs::Phase::EpsDivide,
                               "bsn.eps_divide");
  const std::vector<Tag> divided = divide_eps(scattered_tags, stats);
  divide_scope.end();
  if (explain != nullptr) explain->quasisort.record_divided_tags(divided);
  std::vector<LineValue> sorted_in = result.scattered;
  for (std::size_t i = 0; i < n; ++i) sorted_in[i].tag = divided[i];
  obs::PhaseScope quasisort_scope(obs_probe, obs::Phase::Quasisort,
                                  "bsn.quasisort.config");
  configure_quasisort(quasisort_, divided, stats,
                      explain != nullptr ? &explain->quasisort : nullptr);
  quasisort_scope.end();
  if (seam != nullptr) seam->apply_local(quasisort_, PassKind::Quasisort);
  if (progress != nullptr) progress->fabric_settled = true;
  obs::PhaseScope sort_data_scope(obs_probe, obs::Phase::Datapath,
                                  "bsn.quasisort.datapath");
  result.outputs = quasisort_.propagate(
      std::move(sorted_in),
      [stats](const SwitchContext& ctx, SwitchSetting s, LineValue a,
              LineValue b) {
        if (stats) ++stats->switch_traversals;
        return unicast_switch(ctx, s, std::move(a), std::move(b));
      },
      [&](int stage, const std::vector<LineValue>& ls) {
        if (heatmap != nullptr) {
          heatmap->record_lines(heat->level, PassKind::Quasisort, stage, ls,
                                heat->line_offset);
        }
      });
  sort_data_scope.end();

  // Postcondition: zeros (real or dummy) occupy the upper half, ones the
  // lower half.
  for (std::size_t i = 0; i < n; ++i) {
    const int key = quasisort_key(result.outputs[i].tag);
    BRSMN_ENSURES_MSG(key == (i < n / 2 ? 0 : 1),
                      "quasisort output not split by halves");
  }
  return result;
}

}  // namespace brsmn
