// An epoch-based multicast cell switch on the feedback fabric: cells
// with real payloads enter input ports, headers are serialized to the
// 3-bit-per-tag wire format of Table 1, and each epoch the decoded
// headers form one multicast assignment that the fabric self-routes with
// the packed engine. Each output then receives its source's payload, and
// payload integrity is checked end to end.
//
// Build & run:  ./build/examples/cell_switch [--metrics-out=<path>]
// Exits 1 if any payload arrives corrupted or goes missing. With
// --metrics-out the run dumps its metric registry (per-phase route
// timings) as JSON.
#include <cstdio>
#include <numeric>
#include <utility>
#include <vector>

#include "api/header_codec.hpp"
#include "common/rng.hpp"
#include "core/feedback.hpp"
#include "core/multicast_assignment.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"

namespace {

std::vector<std::uint8_t> make_payload(std::size_t source, int epoch) {
  std::vector<std::uint8_t> p(48);
  for (std::size_t i = 0; i < p.size(); ++i) {
    p[i] = static_cast<std::uint8_t>(source * 31 + epoch * 7 + i);
  }
  return p;
}

std::uint32_t checksum(const std::vector<std::uint8_t>& p) {
  return std::accumulate(p.begin(), p.end(), 0u);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace brsmn;
  constexpr std::size_t kPorts = 64;
  constexpr int kEpochs = 8;

  const auto metrics_path = obs::consume_metrics_out_flag(argc, argv);
  if (argc > 1) {
    std::fprintf(stderr, "unrecognized argument: %s\n"
                 "usage: cell_switch [--metrics-out=<path>]\n", argv[1]);
    return 2;
  }
  obs::MetricRegistry registry;
  // `--metrics-out=-` owns stdout; the report then moves to stderr so the
  // stream stays pure JSON for the pipeline consuming it.
  std::FILE* report = obs::claims_stdout(metrics_path) ? stderr : stdout;

  FeedbackBrsmn fabric(kPorts);
  RouteOptions options;
  options.engine = RouteEngine::Packed;
  if (metrics_path) options.metrics = &registry;
  Rng rng(4242);

  std::fprintf(report, "multicast cell switch: %zu ports, feedback engine\n", kPorts);
  std::fprintf(report, "header size on the wire: %zu bits per cell (3 bits per "
              "routing tag, Table 1)\n\n",
              api::header_bits(kPorts));

  std::size_t total_cells = 0, total_deliveries = 0, corrupt = 0;
  for (int epoch = 0; epoch < kEpochs; ++epoch) {
    const auto demand = random_multicast(kPorts, 0.75, rng);
    std::vector<std::vector<std::size_t>> headers(kPorts);
    std::vector<std::vector<std::uint8_t>> payloads(kPorts);
    for (std::size_t in = 0; in < kPorts; ++in) {
      const auto& dests = demand.destinations(in);
      if (dests.empty()) continue;
      // Serialize the header exactly as the hardware would see it, then
      // decode it back — the switch routes from the same information.
      const auto wire = api::encode_header(dests, kPorts);
      headers[in] = api::decode_header(wire);
      payloads[in] = make_payload(in, epoch);
      ++total_cells;
    }
    const MulticastAssignment cells(kPorts, std::move(headers));
    const RouteResult result = fabric.route(cells, options);
    std::size_t deliveries = 0;
    for (std::size_t out = 0; out < kPorts; ++out) {
      const std::uint32_t want = demand.src_of()[out];
      if (!result.delivered[out]) {
        // An output the demand addressed but the fabric left idle lost
        // its copy of the cell.
        corrupt += want != MulticastAssignment::kIdle;
        continue;
      }
      // The output receives a copy of its source's payload.
      const std::size_t src = *result.delivered[out];
      const std::vector<std::uint8_t> received = payloads[src];
      if (src != want ||
          checksum(received) != checksum(make_payload(want, epoch))) {
        ++corrupt;
      }
      ++deliveries;
    }
    total_deliveries += deliveries;
    std::fprintf(report, "epoch %d: %2zu cells in, %2zu deliveries out, "
                "%zu fabric passes\n",
                epoch, static_cast<std::size_t>(demand.active_inputs()),
                deliveries, result.stats.fabric_passes);
  }

  std::fprintf(report,
               "\ntotals: %zu cells, %zu deliveries, %zu corrupted or lost "
               "payloads\n",
               total_cells, total_deliveries, corrupt);
  std::fprintf(report, corrupt == 0 ? "payload integrity verified end to end.\n"
                           : "PAYLOAD CORRUPTION DETECTED!\n");
  if (metrics_path) {
    if (!obs::try_write_metrics(*metrics_path, registry)) return 1;
    std::fprintf(report, "\nmetrics:\n%s", obs::to_table(registry).c_str());
    std::fprintf(report, "metrics written to %s\n", metrics_path->c_str());
  }
  return corrupt == 0 ? 0 : 1;
}
