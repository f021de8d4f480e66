#include "api/parallel_router.hpp"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>

#include "api/plan_cache.hpp"
#include "common/contracts.hpp"
#include "obs/metrics.hpp"
#include "obs/phase_timer.hpp"
#include "obs/tracer.hpp"

namespace brsmn::api {

ParallelRouter::ParallelRouter(std::size_t n, unsigned threads)
    : n_(n),
      threads_(threads != 0 ? threads
                            : std::max(1u, std::thread::hardware_concurrency())),
      pool_(threads_, [n](unsigned) { return std::make_unique<Brsmn>(n); }) {
  BRSMN_EXPECTS(is_pow2(n) && n >= 2);
}

unsigned ParallelRouter::engines_built() const noexcept {
  return pool_.built();
}

void ParallelRouter::set_metrics(obs::MetricRegistry* metrics) {
  metrics_ = metrics;
}

void ParallelRouter::set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

void ParallelRouter::set_faults(fault::FaultInjector* faults) {
  faults_ = faults;
}

void ParallelRouter::set_self_check(bool on) { self_check_ = on; }

void ParallelRouter::set_plan_cache(PlanCache* cache) { plan_cache_ = cache; }

RouteOptions ParallelRouter::worker_options() const {
  RouteOptions options;
  options.metrics = metrics_;
  options.tracer = tracer_;
  options.engine = RouteEngine::Packed;
  options.self_check = self_check_;
  options.faults = faults_;
  options.plan_cache = plan_cache_;
  return options;
}

namespace {

/// The per-worker scope ParallelRouter wraps around a pool run: one
/// batch-latency sample and one trace lane per worker.
struct WorkerScope {
  obs::Histogram* worker_hist;
  obs::Tracer* tracer;

  template <typename Body>
  void operator()(unsigned t, const Body& body) const {
    const obs::PhaseTimer batch_timer(worker_hist);
    char worker_label[24];
    std::snprintf(worker_label, sizeof worker_label, "parallel.worker.%u", t);
    obs::TraceSpan worker_span(tracer, worker_label);
    body();
  }
};

}  // namespace

std::vector<RouteResult> ParallelRouter::route_batch(
    const std::vector<MulticastAssignment>& batch) {
  std::vector<RouteResult> results(batch.size());
  if (batch.empty()) return results;

  // Pre-deduplicate: rep[i] is the first batch index carrying an
  // identical assignment; workers route only representatives and the
  // results fan back out below. Skipped under fault injection, where
  // every batch element must draw its own slot of the fault schedule.
  std::vector<std::size_t> rep(batch.size());
  std::size_t duplicates = 0;
  if (faults_ == nullptr) {
    std::unordered_map<std::uint64_t, std::vector<std::size_t>> buckets;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      rep[i] = i;
      auto& bucket = buckets[assignment_fingerprint(batch[i])];
      for (const std::size_t j : bucket) {
        if (batch[j] == batch[i]) {
          rep[i] = j;
          ++duplicates;
          break;
        }
      }
      if (rep[i] == i) bucket.push_back(i);
    }
  } else {
    for (std::size_t i = 0; i < batch.size(); ++i) rep[i] = i;
  }

  obs::Histogram* worker_hist = nullptr;
  obs::Histogram* route_hist = nullptr;
  obs::Histogram* per_worker_hist = nullptr;
  if constexpr (obs::kEnabled) {
    if (metrics_ != nullptr) {
      worker_hist = &metrics_->histogram("parallel.worker_batch_ns");
      route_hist = &metrics_->histogram("parallel.route_ns");
      per_worker_hist = &metrics_->histogram("parallel.routes_per_worker");
    }
  }

  const unsigned workers =
      static_cast<unsigned>(std::min<std::size_t>(threads_, batch.size()));
  const RouteOptions options = worker_options();
  std::vector<std::size_t> routed_per_worker(workers, 0);

  obs::TraceSpan dispatch_span(tracer_, "parallel.route_batch");
  std::vector<WorkFailure> failures = pool_.for_each(
      batch.size(),
      [&](Brsmn& engine, unsigned t, std::size_t i) {
        if (rep[i] != i) return;  // a duplicate; filled in after the join
        BRSMN_EXPECTS_MSG(batch[i].size() == n_,
                          "assignment size does not match the network");
        const obs::PhaseTimer route_timer(route_hist);
        results[i] = engine.route(batch[i], options);
        ++routed_per_worker[t];
      },
      WorkerScope{worker_hist, tracer_});

  if (duplicates != 0) {
    // Fan the representatives' outcomes back out: duplicates share their
    // representative's result — or its failure.
    std::unordered_map<std::size_t, std::exception_ptr> failed_reps;
    for (const WorkFailure& f : failures) failed_reps.emplace(f.index, f.error);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (rep[i] == i) continue;
      const auto it = failed_reps.find(rep[i]);
      if (it != failed_reps.end()) {
        failures.push_back({i, it->second});
      } else {
        results[i] = results[rep[i]];
      }
    }
    std::sort(failures.begin(), failures.end(),
              [](const WorkFailure& a, const WorkFailure& b) {
                return a.index < b.index;
              });
  }

  if (!failures.empty()) {
    throw_aggregated("route_batch", "assignment", failures,
                     [](std::size_t i) { return std::to_string(i); });
  }

  if constexpr (obs::kEnabled) {
    if (metrics_ != nullptr) {
      std::size_t lo = std::numeric_limits<std::size_t>::max();
      std::size_t hi = 0;
      for (const std::size_t routed : routed_per_worker) {
        per_worker_hist->record(static_cast<double>(routed));
        lo = std::min(lo, routed);
        hi = std::max(hi, routed);
      }
      metrics_->gauge("parallel.last_imbalance")
          .set(static_cast<double>(hi - lo));
      metrics_->gauge("parallel.last_workers")
          .set(static_cast<double>(workers));
      metrics_->counter("parallel.batches").add(1);
      metrics_->counter("parallel.routes").add(batch.size());
      metrics_->counter("parallel.batch_deduped").add(duplicates);
    }
  }
  return results;
}

std::vector<RouteResult> ParallelRouter::route_groups(
    GroupManager& groups, const std::vector<GroupId>& ids) {
  BRSMN_EXPECTS_MSG(groups.network_size() == n_,
                    "group manager width does not match the router");
  std::vector<RouteResult> results(ids.size());
  if (ids.empty()) return results;

  obs::Histogram* worker_hist = nullptr;
  obs::Histogram* route_hist = nullptr;
  if constexpr (obs::kEnabled) {
    if (metrics_ != nullptr) {
      worker_hist = &metrics_->histogram("parallel.worker_batch_ns");
      route_hist = &metrics_->histogram("parallel.route_ns");
    }
  }

  const RouteOptions options = worker_options();
  obs::TraceSpan dispatch_span(tracer_, "parallel.route_groups");
  const std::vector<WorkFailure> failures = pool_.for_each(
      ids.size(),
      [&](Brsmn& engine, unsigned, std::size_t i) {
        const obs::PhaseTimer route_timer(route_hist);
        results[i] = std::move(groups.route(ids[i], engine, options).result);
      },
      WorkerScope{worker_hist, tracer_});

  if (!failures.empty()) {
    throw_aggregated("route_groups", "group", failures, [&](std::size_t i) {
      return std::to_string(ids[i]);
    });
  }

  if constexpr (obs::kEnabled) {
    if (metrics_ != nullptr) {
      metrics_->counter("parallel.batches").add(1);
      metrics_->counter("parallel.group_routes").add(ids.size());
    }
  }
  return results;
}

}  // namespace brsmn::api
