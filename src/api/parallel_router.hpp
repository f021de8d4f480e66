// Batch routing across CPU threads.
//
// Routing one assignment is inherently sequential (each level feeds the
// next), but independent assignments — successive switching epochs, or
// Monte-Carlo sweeps in the benchmark harness — are embarrassingly
// parallel. ParallelRouter keeps one Brsmn engine per worker thread,
// alive across route_batch calls (building a Brsmn allocates every level
// BSN, so rebuilding per batch would dominate small batches), and shards
// each batch over them with an atomic work queue. Workers route with the
// packed engine, so the worker-level parallelism of this class composes
// with the word-level parallelism of core/packed_kernel.hpp.
// The slot discipline, fan-out loop and failure aggregation live in
// api/engine_pool.hpp — the layer the sharded cluster (api/cluster.hpp)
// composes as well; this class adds batch deduplication and the
// parallel.* instrumentation.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "api/engine_pool.hpp"
#include "api/group_manager.hpp"
#include "core/brsmn.hpp"

namespace brsmn::obs {
class MetricRegistry;
class Tracer;
}  // namespace brsmn::obs

namespace brsmn::fault {
class FaultInjector;
}  // namespace brsmn::fault

namespace brsmn::api {

class PlanCache;

class ParallelRouter {
 public:
  /// A pool of `threads` engines for an n x n network; threads == 0
  /// selects std::thread::hardware_concurrency().
  explicit ParallelRouter(std::size_t n, unsigned threads = 0);

  std::size_t network_size() const noexcept { return n_; }
  unsigned threads() const noexcept { return threads_; }

  /// Engines constructed so far (lazily, one per worker slot on its
  /// first use); exposed so tests can assert they persist across calls.
  unsigned engines_built() const noexcept;

  /// Attach a registry: workers record per-worker batch latency
  /// (parallel.worker_batch_ns), per-assignment latency
  /// (parallel.route_ns), per-batch work distribution
  /// (parallel.routes_per_worker, parallel.last_imbalance) and forward
  /// it to each engine's route() for phase timings. Pass nullptr to
  /// detach. Applies to subsequent route_batch calls.
  void set_metrics(obs::MetricRegistry* metrics);

  /// Attach an event tracer: route_batch spans the dispatch on the caller
  /// thread and each worker's slice on its own thread — every worker is
  /// its own lane in the Chrome trace, with the engines' per-level spans
  /// nested inside. Pass nullptr to detach. Applies to subsequent
  /// route_batch calls.
  void set_tracer(obs::Tracer* tracer);

  /// Attach a fault injector shared by every worker engine (its route
  /// ordinal counter is atomic, so the workers draw from one schedule).
  /// Pass nullptr to detach. Applies to subsequent route_batch calls.
  void set_faults(fault::FaultInjector* faults);

  /// Toggle the engines' online self-check for worker routes (default
  /// on, matching RouteOptions). Applies to subsequent route_batch calls.
  void set_self_check(bool on);
  bool self_check() const noexcept { return self_check_; }

  /// Attach a compiled-plan cache (api/plan_cache.hpp) shared by every
  /// worker engine — the cache is sharded and thread-safe, so concurrent
  /// workers hit plans their peers compiled. Pass nullptr to detach.
  /// Applies to subsequent route_batch calls.
  void set_plan_cache(PlanCache* cache);
  PlanCache* plan_cache() const noexcept { return plan_cache_; }

  /// Route every assignment in `batch`; results come back in order.
  /// Identical assignments within the batch are routed once and their
  /// results copied to every duplicate (whether or not a plan cache is
  /// attached); with a fault injector attached every element is routed
  /// individually, since each route draws its own fault schedule slot.
  /// All assignments must have size network_size(). Worker-side failures
  /// do not abort the batch: every remaining assignment is still routed,
  /// then ALL failures are rethrown as one exception whose message lists
  /// each offending batch index ("assignment <i>: <what>"). The
  /// aggregate is a ContractViolation when every underlying failure was
  /// one, so callers can still catch ContractViolation.
  std::vector<RouteResult> route_batch(
      const std::vector<MulticastAssignment>& batch);

  /// Route every group id's *current* assignment through `groups`
  /// (api/group_manager.hpp) on the worker engines; results come back
  /// in `ids` order. Unlike route_batch there is no deduplication —
  /// each route snapshots the live registry, and with a plan cache
  /// attached repeats replay and post-churn groups patch from each
  /// group's plan slot, which is the cheap path dedup would buy anyway. Failures aggregate exactly like
  /// route_batch, with messages naming the group ("group <id>: ...").
  std::vector<RouteResult> route_groups(GroupManager& groups,
                                        const std::vector<GroupId>& ids);

 private:
  /// The RouteOptions every worker routes with under the current setters.
  RouteOptions worker_options() const;

  std::size_t n_;
  unsigned threads_;
  /// Worker-slot engines, one Brsmn per slot (engine_pool.hpp): slot t is
  /// only touched by worker t during a batch.
  EnginePool<Brsmn> pool_;
  obs::MetricRegistry* metrics_ = nullptr;
  obs::Tracer* tracer_ = nullptr;
  fault::FaultInjector* faults_ = nullptr;
  bool self_check_ = true;
  PlanCache* plan_cache_ = nullptr;
};

}  // namespace brsmn::api
