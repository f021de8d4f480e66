// Cluster benchmark driver: seeded workloads pushed through the public
// api::Cluster front door, every delivery vector checked against
// expected_delivery, and a traced mode that times each layer's public
// calls from this file.
//
//   cluster_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--spans-out <path>]
//   cluster_bench --selftest
//
// Untraced runs (--trace 0) measure the end-to-end metrics of one
// workload; traced runs (--trace 1) re-drive the same inputs one request
// at a time and report per-layer metrics. The last line of stdout is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
// Lines starting with '#' before it carry host facts, sample counts and
// the counters of the run.
//
// The self-test (--selftest) runs each workload for a fixed request
// count instead of a fixed time, so that every counter is deterministic
// for a given seed, and checks that two runs agree exactly.
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "api/cluster.hpp"
#include "api/group_manager.hpp"
#include "api/plan_cache.hpp"
#include "api/resilient_router.hpp"
#include "common/rng.hpp"
#include "core/brsmn.hpp"
#include "core/multicast_assignment.hpp"
#include "core/placement.hpp"
#include "core/route_plan.hpp"
#include "core/simd_backend.hpp"
#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace brsmn;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Fixed benchmark shape (see perfbench/NOTES.md for why each value).

constexpr std::size_t kShards = 2;
constexpr std::size_t kOutstanding = 2;  // == shards * workers_per_shard
// Set-up is timed in two batches, one before and one after the timed
// phase, so that a slow spell of the host at one end of the run moves at
// most half of the samples. Each batch repeats set-up at least kMinSetups
// times and until kSetupBudget seconds have passed (at most kMaxSetups
// times); setup_s is the median over both batches.
constexpr std::size_t kMinSetups = 3;
constexpr std::size_t kMaxSetups = 25;
constexpr double kSetupBudget = 1.5;
constexpr std::size_t kSlices = 20;
constexpr std::size_t kColdPool = 1024;      // > 2x total plan capacity
constexpr std::size_t kColdWarm = 512;       // fills both shard caches
constexpr std::size_t kGroups = 64;
constexpr std::size_t kGroupSources = 8;
constexpr std::size_t kGroupSteps = 128;     // forward ops, then undone
constexpr double kDensity = 0.6;

// The values seed each workload's input generator; they are fixed so that
// a seed keeps naming the same inputs.
enum class Kind { CompileCold = 1, GroupChurn = 2 };

struct WorkloadSpec {
  const char* name;
  Kind kind;
  std::size_t n;
  std::size_t probe_requests;  // traced-mode count per probe
};

constexpr std::array<WorkloadSpec, 2> kWorkloads{{
    {"compile_cold_n1024", Kind::CompileCold, 1024, 300},
    {"group_churn_n256", Kind::GroupChurn, 256, 1000},
}};

const WorkloadSpec* find_workload(const std::string& name) {
  for (const auto& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Inputs

/// Expected delivery vector in compact form: source input per output,
/// -1 for an idle output.
using Delivery = std::vector<std::int16_t>;

Delivery compact(const std::vector<std::optional<std::size_t>>& delivered) {
  Delivery out(delivered.size(), -1);
  for (std::size_t i = 0; i < delivered.size(); ++i) {
    if (delivered[i]) out[i] = static_cast<std::int16_t>(*delivered[i]);
  }
  return out;
}

bool matches(const RouteResult& result, const Delivery& expected) {
  if (result.delivered.size() != expected.size()) return false;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const auto& got = result.delivered[i];
    if (expected[i] < 0 ? got.has_value()
                        : (!got || *got != static_cast<std::size_t>(
                                                expected[i]))) {
      return false;
    }
  }
  return true;
}

struct GroupOp {
  bool join = false;
  std::uint16_t src = 0;
  std::uint16_t dst = 0;
};

struct Inputs {
  std::size_t n = 0;
  // Assignment workloads: distinct pool plus the request sequence.
  std::vector<MulticastAssignment> pool;
  std::vector<Delivery> pool_expected;
  std::vector<std::uint32_t> sequence;  // request r -> pool[sequence[r % L]]
  // Group workload: seed connections per group, then `period` ops per
  // group (forward steps followed by their undo, so the cycle closes).
  std::vector<std::vector<std::pair<std::uint16_t, std::uint16_t>>> seeds;
  std::vector<GroupOp> ops;              // ops[g * period + step]
  std::vector<Delivery> op_expected;     // delivery after ops[...]
  std::size_t period = 0;
  std::uint64_t digest = 0;

  bool groups() const { return !seeds.empty(); }
  std::size_t group_of(std::uint64_t r) const { return r % kGroups; }
  std::size_t op_index(std::uint64_t r) const {
    return group_of(r) * period + (r / kGroups) % period;
  }
  const MulticastAssignment& assignment(std::uint64_t r) const {
    return pool[sequence[r % sequence.size()]];
  }
  const Delivery& expected(std::uint64_t r) const {
    return groups() ? op_expected[op_index(r)]
                    : pool_expected[sequence[r % sequence.size()]];
  }
};

std::uint64_t fnv_mix(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= 0x100000001b3ull;
  }
  return h;
}

MulticastAssignment assignment_of(
    std::size_t n,
    const std::vector<std::pair<std::uint16_t, std::uint16_t>>& links) {
  MulticastAssignment a(n);
  for (const auto& [src, dst] : links) a.connect(src, dst);
  return a;
}

/// `count` distinct random assignments.
void make_pool(Inputs& in, std::size_t count, Rng& rng) {
  std::unordered_set<std::uint64_t> seen;
  while (in.pool.size() < count) {
    MulticastAssignment a = random_multicast(in.n, kDensity, rng);
    if (!seen.insert(assignment_fingerprint(a)).second) continue;
    in.pool_expected.push_back(compact(expected_delivery(a)));
    in.pool.push_back(std::move(a));
  }
}

void make_groups(Inputs& in, Rng& rng) {
  const std::size_t n = in.n;
  const std::size_t target = 3 * n / 4;
  in.period = 2 * kGroupSteps;
  in.ops.resize(kGroups * in.period);
  in.op_expected.resize(kGroups * in.period);
  for (std::size_t g = 0; g < kGroups; ++g) {
    const std::vector<std::size_t> sources = rng.subset(n, kGroupSources);
    std::vector<std::int16_t> owner(n, -1);
    std::vector<std::pair<std::uint16_t, std::uint16_t>> links;
    for (std::size_t dst : rng.subset(n, target)) {
      const auto src = sources[rng.uniform(0, kGroupSources - 1)];
      owner[dst] = static_cast<std::int16_t>(src);
      links.emplace_back(static_cast<std::uint16_t>(src),
                         static_cast<std::uint16_t>(dst));
    }
    in.seeds.push_back(links);
    std::vector<GroupOp> forward;
    for (std::size_t step = 0; step < kGroupSteps; ++step) {
      const bool join = links.size() < target - n / 32   ? true
                        : links.size() > target + n / 32 ? false
                                                         : rng.chance(0.5);
      GroupOp op;
      op.join = join;
      if (join) {
        std::size_t dst = rng.uniform(0, n - 1);
        while (owner[dst] >= 0) dst = (dst + 1) % n;
        op.src = static_cast<std::uint16_t>(
            sources[rng.uniform(0, kGroupSources - 1)]);
        op.dst = static_cast<std::uint16_t>(dst);
        owner[dst] = static_cast<std::int16_t>(op.src);
        links.emplace_back(op.src, op.dst);
      } else {
        const std::size_t k = rng.uniform(0, links.size() - 1);
        op.src = links[k].first;
        op.dst = links[k].second;
        owner[op.dst] = -1;
        links[k] = links.back();
        links.pop_back();
      }
      forward.push_back(op);
      in.ops[g * in.period + step] = op;
      in.op_expected[g * in.period + step] = owner;
    }
    for (std::size_t k = 0; k < kGroupSteps; ++k) {
      GroupOp op = forward[kGroupSteps - 1 - k];
      op.join = !op.join;
      owner[op.dst] = op.join ? static_cast<std::int16_t>(op.src) : -1;
      in.ops[g * in.period + kGroupSteps + k] = op;
      in.op_expected[g * in.period + kGroupSteps + k] = owner;
    }
  }
}

Inputs make_inputs(const WorkloadSpec& spec, std::uint64_t seed) {
  Rng rng(mix64(seed ^ 0x5eedba5eull) ^ static_cast<std::uint64_t>(spec.kind));
  Inputs in;
  in.n = spec.n;
  switch (spec.kind) {
    case Kind::CompileCold:
      make_pool(in, kColdPool, rng);
      // Cycling a pool larger than twice the total plan capacity makes
      // every request a miss: on each shard ~kColdPool/2 distinct
      // entries pass between two visits of the same assignment.
      in.sequence.resize(kColdPool);
      for (std::size_t i = 0; i < kColdPool; ++i) {
        in.sequence[i] =
            static_cast<std::uint32_t>((i + kColdWarm) % kColdPool);
      }
      break;
    case Kind::GroupChurn:
      make_groups(in, rng);
      break;
  }
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const auto& a : in.pool) h = fnv_mix(h, assignment_fingerprint(a));
  for (std::uint32_t s : in.sequence) h = fnv_mix(h, s);
  for (const auto& links : in.seeds) {
    for (const auto& [src, dst] : links) h = fnv_mix(h, src * 65536u + dst);
  }
  for (const auto& op : in.ops) {
    h = fnv_mix(h, (op.join ? 1u << 31 : 0u) | op.src * 65536u | op.dst);
  }
  in.digest = h;
  return in;
}

/// The level-2 dead link on the unrolled fabric that the router probe
/// injects into shard 1. It fires on every request that shard serves.
fault::FaultPlan dead_link_plan(std::size_t n) {
  fault::FaultSpec spec;
  spec.kind = fault::FaultKind::DeadLink;
  spec.level = 2;
  spec.index = 5;
  spec.impl = fault::ImplKind::Unrolled;
  return fault::FaultPlan{n, {spec}};
}

// ---------------------------------------------------------------------------
// Small statistics helpers

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

/// num / den, with an empty denominator read as 1.
double ratio(std::uint64_t num, std::uint64_t den) {
  return static_cast<double>(num) /
         static_cast<double>(std::max<std::uint64_t>(1, den));
}

double us_since(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double, std::micro>(t1 - t0).count();
}

double read_status_kb(const char* field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  const std::string key = std::string(field) + ":";
  while (std::getline(status, line)) {
    if (line.rfind(key, 0) == 0) return std::atof(line.c_str() + key.size());
  }
  return 0.0;
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

// ---------------------------------------------------------------------------
// Request accounting shared by every mode

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t correct = 0;
  std::uint64_t primary = 0;  // Delivered on the primary path
  std::uint64_t degraded = 0;
  std::uint64_t failed_outcomes = 0;
  std::uint64_t misdelivered = 0;
  std::uint64_t rejected = 0;
  std::uint64_t exceptions = 0;
  std::uint64_t attempts = 0;

  std::uint64_t failed() const { return attempted - correct; }

  /// Counts one request; `outcome` is empty when its future threw.
  void check(const std::optional<api::ClusterOutcome>& outcome,
             const Delivery& expected) {
    ++attempted;
    if (!outcome) {
      ++exceptions;
      return;
    }
    const api::ClusterOutcome& o = *outcome;
    attempts += o.request.attempts;
    if (o.rejected) {
      ++rejected;
      return;
    }
    if (o.request.outcome == api::RouteOutcome::Failed || !o.request.result) {
      ++failed_outcomes;
      return;
    }
    if (!matches(*o.request.result, expected)) {
      ++misdelivered;
      return;
    }
    ++correct;
    if (o.request.outcome == api::RouteOutcome::DeliveredDegraded) {
      ++degraded;
    } else {
      ++primary;
    }
  }
};

// ---------------------------------------------------------------------------
// In-memory spans (traced mode only)

struct Span {
  const char* name;
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::int64_t parent;  // index into the span list, -1 for a root
  std::uint64_t request;
};

class SpanLog {
 public:
  SpanLog() : t0_(Clock::now()) { spans_.reserve(1 << 16); }

  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                t0_)
        .count();
  }
  std::int64_t open(const char* name, std::int64_t parent,
                    std::uint64_t request) {
    spans_.push_back({name, now_ns(), -1, parent, request});
    return static_cast<std::int64_t>(spans_.size() - 1);
  }
  /// Closes span `id` and returns its duration in microseconds.
  double close(std::int64_t id) {
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.end_ns = now_ns();
    return static_cast<double>(s.end_ns - s.start_ns) / 1e3;
  }

  /// Self time per layer, in ms: a span's duration minus its direct
  /// children's (children of one parent never overlap here). The layer
  /// is the span name up to its first '.'.
  std::map<std::string, double> self_ms() const {
    std::vector<std::int64_t> child_ns(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
      }
    }
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const std::string name = spans_[i].name;
      const double ms =
          static_cast<double>(spans_[i].end_ns - spans_[i].start_ns -
                              child_ns[i]) /
          1e6;
      out[name.substr(0, name.find('.'))] += ms;
    }
    return out;
  }

  void write(const std::string& path, const std::string& header) const {
    std::ofstream out(path);
    if (!out) throw std::runtime_error("cannot write spans to " + path);
    out << header << '\n';
    for (const Span& s : spans_) {
      out << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
          << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent
          << ",\"request\":" << s.request << "}\n";
    }
    if (!out) throw std::runtime_error("failed writing spans to " + path);
  }

 private:
  Clock::time_point t0_;
  std::vector<Span> spans_;
};

/// RAII span: open on construction, close (once) on end() or scope exit.
class Scope {
 public:
  Scope(SpanLog& log, const char* name, std::int64_t parent,
        std::uint64_t request)
      : log_(log), id_(log.open(name, parent, request)) {}
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  ~Scope() { end(); }
  std::int64_t id() const { return id_; }
  double end() {
    if (!open_) return us_;
    open_ = false;
    us_ = log_.close(id_);
    return us_;
  }

 private:
  SpanLog& log_;
  std::int64_t id_;
  bool open_ = true;
  double us_ = 0.0;
};

// ---------------------------------------------------------------------------
// Cluster rig: one cluster (plus its group registry) after the workload's
// warm-up.

struct Rig {
  std::unique_ptr<api::GroupManager> groups;
  std::unique_ptr<api::Cluster> cluster;  // last: stops before the rest go
};

struct Hooks {
  obs::MetricRegistry* metrics = nullptr;
  obs::Tracer* tracer = nullptr;
};

/// Keeps kOutstanding requests in flight until `count` were issued or
/// `deadline` passed, then drains. `submit(r)` issues request r and
/// `done(r, t0, t1, outcome)` sees each completion (outcome empty when
/// the future threw). The client polls the futures rather than blocking
/// on the oldest, so a fast request is seen (and replaced) as soon as it
/// completes even while a slow one is still in flight.
template <typename Submit, typename Done>
void closed_loop(std::uint64_t count, Clock::time_point deadline,
                 Submit&& submit, Done&& done) {
  struct Pending {
    std::future<api::ClusterOutcome> future;
    std::uint64_t request = 0;
    Clock::time_point t0{};
  };
  std::array<std::optional<Pending>, kOutstanding> slots;
  std::uint64_t issued = 0;
  auto issue = [&](std::optional<Pending>& slot) {
    if (issued >= count || Clock::now() >= deadline) return;
    const std::uint64_t r = issued++;
    const Clock::time_point t0 = Clock::now();
    slot = Pending{submit(r), r, t0};
  };
  for (auto& slot : slots) issue(slot);
  bool busy = true;
  while (busy) {
    busy = false;
    for (auto& slot : slots) {
      if (!slot) continue;
      busy = true;
      if (slot->future.wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
        continue;
      }
      const Clock::time_point t1 = Clock::now();
      std::optional<api::ClusterOutcome> outcome;
      try {
        outcome = slot->future.get();
      } catch (const std::exception& e) {
        std::fprintf(stderr, "request %llu threw: %s\n",
                     static_cast<unsigned long long>(slot->request), e.what());
      }
      done(slot->request, slot->t0, t1, outcome);
      slot.reset();
      issue(slot);
    }
  }
}

/// Applies request r's membership change and submits the group route.
std::future<api::ClusterOutcome> submit_request(Rig& rig, const Inputs& in,
                                                std::uint64_t r) {
  if (!in.groups()) return rig.cluster->submit(in.assignment(r));
  const GroupOp& op = in.ops[in.op_index(r)];
  const std::size_t g = in.group_of(r);
  if (op.join) {
    rig.groups->join(g, op.src, op.dst);
  } else {
    rig.groups->leave(g, op.src, op.dst);
  }
  return rig.cluster->submit_group(*rig.groups, g);
}

/// Builds a cluster for the workload of `in` and runs its warm-up: cache
/// fill (compile_cold) or group seeding (group_churn). Warm-up outcomes
/// are checked into `tally`.
Rig build_rig(const Inputs& in, const Hooks& hooks, Tally& tally) {
  Rig rig;
  api::ClusterConfig cfg;
  cfg.shards = kShards;
  cfg.workers_per_shard = 1;
  cfg.metrics = hooks.metrics;
  cfg.tracer = hooks.tracer;
  rig.cluster = std::make_unique<api::Cluster>(in.n, cfg);
  const auto never = Clock::time_point::max();
  if (in.groups()) {
    rig.groups = std::make_unique<api::GroupManager>(in.n);
    for (std::size_t g = 0; g < kGroups; ++g) {
      for (const auto& [src, dst] : in.seeds[g]) rig.groups->join(g, src, dst);
    }
    std::vector<Delivery> seeded;
    for (std::size_t g = 0; g < kGroups; ++g) {
      seeded.push_back(
          compact(expected_delivery(assignment_of(in.n, in.seeds[g]))));
    }
    closed_loop(
        kGroups, never,
        [&](std::uint64_t g) {
          return rig.cluster->submit_group(*rig.groups, g);
        },
        [&](std::uint64_t g, auto, auto, const auto& o) {
          tally.check(o, seeded[g]);
        });
  } else {
    closed_loop(
        kColdWarm, never,
        [&](std::uint64_t i) { return rig.cluster->submit(in.pool[i]); },
        [&](std::uint64_t i, auto, auto, const auto& o) {
          tally.check(o, in.pool_expected[i]);
        });
  }
  return rig;
}

/// One batch of set-ups: builds rigs repeatedly (keeping the last in
/// `rig`) and appends each set-up time, in seconds, to `secs`. The heap
/// is trimmed after each teardown, outside the timing, so every set-up
/// starts from the same resident memory: otherwise the pages that earlier
/// clusters' worker threads left in their malloc arenas stay resident and
/// peak_rss_mb depends on how many set-ups ran and on thread timing.
void timed_setups(const Inputs& in, Tally& tally, Rig& rig,
                  std::vector<double>& secs) {
  std::size_t built = 0;
  double total = 0.0;
  while (built < kMaxSetups && (built < kMinSetups || total < kSetupBudget)) {
    rig.cluster.reset();  // stop the previous cluster outside the timing
    rig = Rig{};
#if defined(__GLIBC__)
    malloc_trim(0);
#endif
    const Clock::time_point t0 = Clock::now();
    rig = build_rig(in, Hooks{}, tally);
    secs.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
    total += secs.back();
    ++built;
  }
}

struct LoopResult {
  double routes_per_s = 0.0;
  double p50_us = 0.0;
  double p90_us = 0.0;
  std::uint64_t samples = 0;
  std::string slices_json;  // per-slice [rate, p50, p90]
};

/// Drives the first `count` requests through the closed loop and checks
/// each outcome (the self-test's fixed-count form of a run).
void run_count(Rig& rig, const Inputs& in, std::uint64_t count,
               Tally& tally) {
  closed_loop(
      count, Clock::time_point::max(),
      [&](std::uint64_t r) { return submit_request(rig, in, r); },
      [&](std::uint64_t r, auto, auto, const auto& o) {
        tally.check(o, in.expected(r));
      });
}

/// The timed phase: closed loop over the request sequence for `seconds`,
/// cut into kSlices equal time slices. Each metric is taken over the
/// quiet quarter of the slices: throughput is the upper quartile of the
/// per-slice rates, p50 and p90 the lower quartile of the per-slice
/// percentiles. On a shared host a vCPU's speed changes by up to 1.6x
/// for seconds at a time; a median follows whichever speed held for most
/// of a run, the quiet quarter follows the program.
LoopResult run_timed(Rig& rig, const Inputs& in, double seconds,
                     Tally& tally) {
  const Clock::time_point start = Clock::now();
  const auto slice = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds / static_cast<double>(kSlices)));
  const Clock::time_point deadline = start + slice * kSlices;
  LoopResult res;
  std::vector<double> rates(kSlices, 0.0), p50s(kSlices, 0.0),
      p90s(kSlices, 0.0);
  // Only the current slice's latencies are kept, so that the timed
  // phase's own bookkeeping, which grows with throughput, stays out of
  // peak_rss_mb. A slice's rate is measured between its first and last
  // completion, so it is not quantized to whole requests per slice.
  std::vector<double> lat;
  std::size_t cur = 0;
  Clock::time_point first{}, last{};
  auto close_slice = [&] {
    const double between_s =
        std::chrono::duration<double>(last - first).count();
    res.samples += lat.size();
    rates[cur] = lat.size() < 2 || between_s <= 0.0
                     ? 0.0
                     : static_cast<double>(lat.size() - 1) / between_s;
    p50s[cur] = percentile(lat, 0.5);
    p90s[cur] = percentile(lat, 0.9);
    lat.clear();
    ++cur;
  };
  closed_loop(
      UINT64_MAX, deadline,
      [&](std::uint64_t r) { return submit_request(rig, in, r); },
      [&](std::uint64_t r, Clock::time_point t0, Clock::time_point t1,
          const std::optional<api::ClusterOutcome>& o) {
        tally.check(o, in.expected(r));
        if (t1 < deadline) {
          const auto k = static_cast<std::size_t>((t1 - start) / slice);
          while (cur < k) close_slice();
          if (lat.empty()) first = t1;
          last = t1;
          lat.push_back(us_since(t0, t1));
        }
      });
  while (cur < kSlices) close_slice();

  std::ostringstream js;
  for (std::size_t k = 0; k < kSlices; ++k) {
    js << (k ? ", " : "[") << '[' << fmt(rates[k]) << ", " << fmt(p50s[k])
       << ", " << fmt(p90s[k]) << ']';
  }
  res.slices_json = js.str() + "]";
  res.routes_per_s = percentile(rates, 0.75);
  res.p50_us = percentile(p50s, 0.25);
  res.p90_us = percentile(p90s, 0.25);
  return res;
}

std::map<std::string, std::uint64_t> cluster_counters(const Rig& rig,
                                                      const Tally& tally) {
  std::map<std::string, std::uint64_t> c;
  const api::ClusterTotals t = rig.cluster->totals();
  c["cluster.submitted"] = t.submitted;
  c["cluster.delivered"] = t.delivered;
  c["cluster.delivered_degraded"] = t.delivered_degraded;
  c["cluster.failed"] = t.failed;
  c["cluster.rejected"] = t.rejected;
  for (std::size_t s = 0; s < rig.cluster->shards(); ++s) {
    c["cluster.shard" + std::to_string(s) + ".served"] =
        rig.cluster->shard_status(s).served;
  }
  c["requests.attempts"] = tally.attempts;
  c["requests.degraded"] = tally.degraded;
  if (rig.groups) {
    c["group.patched"] = rig.groups->plans_patched();
    c["group.compiled"] = rig.groups->plans_compiled();
    c["group.replayed"] = rig.groups->plans_replayed();
    c["group.abandoned"] = rig.groups->patches_abandoned();
  }
  return c;
}

/// stop() drains every request; afterwards the cluster's conservation
/// law must hold exactly.
bool conserved(Rig& rig) {
  rig.cluster->stop();
  const api::ClusterTotals t = rig.cluster->totals();
  if (t.submitted != t.completed + t.rejected) {
    std::fprintf(stderr,
                 "conservation violated: submitted=%llu completed=%llu "
                 "rejected=%llu\n",
                 static_cast<unsigned long long>(t.submitted),
                 static_cast<unsigned long long>(t.completed),
                 static_cast<unsigned long long>(t.rejected));
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Output

/// (name, (value, unit)) in output order.
using Metrics =
    std::vector<std::pair<std::string, std::pair<double, const char*>>>;

void print_result(bool correct, const Tally& tally, const Metrics& metrics) {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << tally.attempted
      << ", \"failed\": " << tally.failed() << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out << (i ? ", " : "") << '"' << metrics[i].first << "\": {\"value\": "
        << fmt(metrics[i].second.first) << ", \"unit\": \""
        << metrics[i].second.second << "\"}";
  }
  out << "}}";
  std::printf("%s\n", out.str().c_str());
  std::fflush(stdout);
}

std::string counters_json(const std::map<std::string, std::uint64_t>& c) {
  std::ostringstream out;
  out << '{';
  bool first = true;
  for (const auto& [k, v] : c) {
    out << (first ? "" : ", ") << '"' << k << "\": " << v;
    first = false;
  }
  out << '}';
  return out.str();
}

std::string host_json(const WorkloadSpec& spec, std::uint64_t seed) {
  std::ostringstream out;
  out << "{\"nproc\": " << std::thread::hardware_concurrency()
      << ", \"simd_backend\": \"" << simd::ops(simd::Backend::Auto).name
      << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
      << "\", \"obs\": " << (obs::kEnabled ? "true" : "false")
      << ", \"workload\": \"" << spec.name << "\", \"seed\": " << seed << '}';
  return out.str();
}

bool tally_clean(const Tally& t) {
  return t.attempted > 0 && t.correct == t.attempted;
}

void report_tally(const char* what, const Tally& t) {
  if (tally_clean(t)) return;
  std::fprintf(stderr,
               "%s: attempted=%llu correct=%llu failed_outcomes=%llu "
               "misdelivered=%llu rejected=%llu exceptions=%llu\n",
               what, static_cast<unsigned long long>(t.attempted),
               static_cast<unsigned long long>(t.correct),
               static_cast<unsigned long long>(t.failed_outcomes),
               static_cast<unsigned long long>(t.misdelivered),
               static_cast<unsigned long long>(t.rejected),
               static_cast<unsigned long long>(t.exceptions));
}

// ---------------------------------------------------------------------------
// Untraced run: end-to-end metrics

int run_untraced(const WorkloadSpec& spec, std::uint64_t seed,
                 double seconds) {
  const Inputs in = make_inputs(spec, seed);
  const double rss_base_kb = read_status_kb("VmRSS");

  Tally warm;
  Rig rig;
  std::vector<double> setup_secs;
  timed_setups(in, warm, rig, setup_secs);
  Tally tally;
  const LoopResult loop = run_timed(rig, in, seconds, tally);
  bool ok = conserved(rig);
  const double peak_mb = (read_status_kb("VmHWM") - rss_base_kb) / 1024.0;
  const auto counters = cluster_counters(rig, tally);
  timed_setups(in, warm, rig, setup_secs);
  const double setup_s = median(setup_secs);

  report_tally("warm-up", warm);
  report_tally("timed phase", tally);
  ok = ok && tally_clean(warm) && tally_clean(tally);
  std::printf("# host %s\n", host_json(spec, seed).c_str());
  std::printf("# inputs {\"digest\": %llu}\n",
              static_cast<unsigned long long>(in.digest));
  std::printf("# samples {\"latency\": %llu, \"slices\": %zu, "
              "\"setups\": %zu}\n",
              static_cast<unsigned long long>(loop.samples), kSlices,
              setup_secs.size());
  std::printf("# counters %s\n", counters_json(counters).c_str());
  std::printf("# slices %s\n", loop.slices_json.c_str());

  print_result(ok, tally,
               {{"routes_per_s", {loop.routes_per_s, "1/s"}},
                {"latency_p50_us", {loop.p50_us, "us"}},
                {"latency_p90_us", {loop.p90_us, "us"}},
                {"correct_share",
                 {ratio(tally.correct, tally.attempted), "share"}},
                {"primary_path_share",
                 {ratio(tally.primary, tally.attempted), "share"}},
                {"setup_s", {setup_s, "s"}},
                {"peak_rss_mb", {peak_mb, "MB"}}});
  return ok ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Traced run: per-layer probes, one request at a time

struct Probe {
  const WorkloadSpec& spec;
  const Inputs& in;
  SpanLog& spans;
  Tally tally;
  std::map<std::string, double> metrics;
  std::map<std::string, std::uint64_t> counters;
  std::uint64_t next_request = 0;

  /// The assignment stream the non-cluster probes re-drive: the pool
  /// sequence, or each group's state after request r's op.
  std::vector<MulticastAssignment> stream;
  std::vector<const Delivery*> stream_expected;

  /// Stops the rig's cluster; a broken conservation law fails the run.
  void conserve(Rig& rig) {
    if (!conserved(rig)) {
      ++tally.attempted;
      ++tally.exceptions;
    }
  }

  void check(const RouteResult& r, const Delivery& e) {
    ++tally.attempted;
    if (matches(r, e)) {
      ++tally.correct;
    } else {
      ++tally.misdelivered;
    }
  }
};

void build_stream(Probe& p) {
  const std::size_t count = p.spec.probe_requests;
  if (!p.in.groups()) {
    for (std::uint64_t r = 0; r < count; ++r) {
      p.stream.push_back(p.in.assignment(r));
      p.stream_expected.push_back(&p.in.expected(r));
    }
    return;
  }
  std::vector<MulticastAssignment> state;
  for (std::size_t g = 0; g < kGroups; ++g) {
    state.push_back(assignment_of(p.in.n, p.in.seeds[g]));
  }
  for (std::uint64_t r = 0; r < count; ++r) {
    const GroupOp& op = p.in.ops[p.in.op_index(r)];
    auto& a = state[p.in.group_of(r)];
    if (op.join) {
      a.connect(op.src, op.dst);
    } else {
      a.disconnect(op.src, op.dst);
    }
    p.stream.push_back(a);
    p.stream_expected.push_back(&p.in.expected(r));
  }
}

/// Cluster probe: a fresh rig driven one request at a time; times the
/// submit call and submit -> resolved. A MetricRegistry is attached so
/// that each request's route time on its shard (the shard's route_ns
/// histogram grows by exactly that request) can be taken from its
/// end-to-end time: cluster.overhead_us_p50 is the median of that
/// difference over the same requests.
void probe_cluster(Probe& p) {
  obs::MetricRegistry registry;
  Rig rig = build_rig(p.in, Hooks{&registry, nullptr}, p.tally);
  std::vector<obs::Histogram*> route_ns;
  std::vector<double> route_ns_sum;
  for (std::size_t s = 0; s < rig.cluster->shards(); ++s) {
    route_ns.push_back(&registry.histogram("cluster.shard." +
                                           std::to_string(s) + ".route_ns"));
    route_ns_sum.push_back(route_ns.back()->snapshot().sum);
  }
  std::vector<double> submit_us, overhead_us;
  for (std::uint64_t r = 0; r < p.spec.probe_requests; ++r) {
    const std::uint64_t rid = p.next_request++;
    Scope root(p.spans, "bench.cluster_request", -1, rid);
    std::future<api::ClusterOutcome> fut;
    {
      Scope s(p.spans, "cluster.submit", root.id(), rid);
      fut = submit_request(rig, p.in, r);
      submit_us.push_back(s.end());
    }
    std::optional<api::ClusterOutcome> outcome;
    {
      Scope w(p.spans, "cluster.wait", root.id(), rid);
      outcome = fut.get();
      p.tally.check(outcome, p.in.expected(r));
    }
    const double e2e_us = root.end();
    if constexpr (obs::kEnabled) {
      const std::size_t s = outcome->shard;
      const double sum = route_ns[s]->snapshot().sum;
      overhead_us.push_back(e2e_us - (sum - route_ns_sum[s]) / 1000.0);
      route_ns_sum[s] = sum;
    }
  }
  p.conserve(rig);
  std::vector<double> served;
  for (std::size_t s = 0; s < rig.cluster->shards(); ++s) {
    served.push_back(static_cast<double>(rig.cluster->shard_status(s).served));
    p.counters["cluster.shard" + std::to_string(s) + ".served"] =
        rig.cluster->shard_status(s).served;
  }
  double sum = 0.0;
  for (double v : served) sum += v;
  p.metrics["cluster.submit_us_p50"] = median(submit_us);
  p.metrics["cluster.overhead_us_p50"] = median(overhead_us);
  p.metrics["cluster.shard_skew"] =
      *std::max_element(served.begin(), served.end()) /
      (sum / static_cast<double>(served.size()));
}

/// Request-path probe: placement -> plan_cache -> planner, re-driven by
/// hand on per-shard caches sized like the cluster's.
void probe_path(Probe& p) {
  const std::size_t n = p.in.n;
  std::vector<std::unique_ptr<api::PlanCache>> caches;
  std::vector<Brsmn> nets;
  for (std::size_t s = 0; s < kShards; ++s) {
    caches.push_back(std::make_unique<api::PlanCache>(api::PlanCacheConfig{}));
    nets.emplace_back(n);
  }
  RouteOptions opts;
  std::vector<double> key_us, lookup_us, compile_us;
  auto route_one = [&](const MulticastAssignment& a, const Delivery& e,
                       bool timed) {
    const std::uint64_t rid = p.next_request++;
    Scope root(p.spans, "bench.path_request", -1, rid);
    std::size_t shard = 0;
    {
      Scope s(p.spans, "placement.key", root.id(), rid);
      shard = primary_shard(assignment_fingerprint(a), kShards);
      if (timed) key_us.push_back(s.end());
    }
    api::PlanCache::PlanPtr plan;
    {
      Scope s(p.spans, "plan_cache.lookup", root.id(), rid);
      plan = caches[shard]->lookup(a, fault::ImplKind::Unrolled);
      if (timed) lookup_us.push_back(s.end());
    }
    if (plan) {
      Scope s(p.spans, "planner.replay", root.id(), rid);
      const RouteResult r = nets[shard].route_replay(*plan, opts);
      s.end();
      p.check(r, e);
      return;
    }
    auto fresh = std::make_shared<RoutePlan>();
    RouteResult r;
    {
      Scope s(p.spans, "planner.compile", root.id(), rid);
      r = planner::compile_route(nets[shard], a, opts, *fresh);
      compile_us.push_back(s.end());  // warm-up compiles count too
    }
    {
      Scope s(p.spans, "plan_cache.insert", root.id(), rid);
      caches[shard]->insert(a, fault::ImplKind::Unrolled, std::move(fresh));
    }
    p.check(r, e);
  };
  // Warm-up mirrors build_rig's, then the stream is timed.
  if (p.in.groups()) {
    for (std::size_t g = 0; g < kGroups; ++g) {
      const MulticastAssignment a = assignment_of(n, p.in.seeds[g]);
      route_one(a, compact(expected_delivery(a)), false);
    }
  } else {
    for (std::size_t i = 0; i < kColdWarm; ++i) {
      route_one(p.in.pool[i], p.in.pool_expected[i], false);
    }
  }
  std::uint64_t hits0 = 0, lookups0 = 0, evictions0 = 0;
  for (const auto& c : caches) {
    hits0 += c->hits();
    lookups0 += c->hits() + c->misses();
    evictions0 += c->evictions();
  }
  for (std::size_t i = 0; i < p.stream.size(); ++i) {
    route_one(p.stream[i], *p.stream_expected[i], true);
  }
  std::uint64_t hits = 0, lookups = 0, evictions = 0;
  for (const auto& c : caches) {
    hits += c->hits();
    lookups += c->hits() + c->misses();
    evictions += c->evictions();
  }
  hits -= hits0;
  lookups -= lookups0;
  evictions -= evictions0;
  p.counters["plan_cache.hits"] = hits;
  p.counters["plan_cache.lookups"] = lookups;
  p.counters["plan_cache.evictions"] = evictions;
  p.metrics["placement.key_us_p50"] = median(key_us);
  p.metrics["plan_cache.lookup_us_p50"] = median(lookup_us);
  p.metrics["plan_cache.hit_share"] = ratio(hits, lookups);
  p.metrics["plan_cache.evictions"] = static_cast<double>(evictions);
  p.metrics["planner.compile_us_p50"] = median(compile_us);
}

/// Group probe: GroupManager::route with a plan cache, plus a direct
/// planner::patch_route of each new state from the group's last plan.
/// group_churn replays its own churn; the other workloads form one group
/// per pool assignment and flicker one connection (leave, then join back).
void probe_groups(Probe& p) {
  const std::size_t n = p.in.n;
  api::PlanCache cache;
  api::GroupManager groups(n);
  Brsmn net(n);
  RouteOptions opts;
  opts.plan_cache = &cache;
  RouteOptions plain;
  planner::PatchConfig patch_cfg;
  patch_cfg.max_dirty_fraction = api::GroupManagerConfig{}.max_dirty_fraction;

  const std::size_t count = p.spec.probe_requests;
  const std::size_t group_count =
      p.in.groups() ? kGroups : std::min(kGroups, p.in.pool.size());
  std::vector<MulticastAssignment> shadow;
  std::vector<RoutePlan> last(group_count);
  for (std::size_t g = 0; g < group_count; ++g) {
    shadow.push_back(p.in.groups() ? assignment_of(n, p.in.seeds[g])
                                   : p.in.pool[g]);
    for (std::size_t src = 0; src < n; ++src) {
      for (std::size_t dst : shadow[g].destinations(src)) {
        groups.join(g, src, dst);
      }
    }
    groups.route(g, net, opts);
    planner::compile_route(net, shadow[g], plain, last[g]);
  }
  const std::uint64_t patched0 = groups.plans_patched();
  const std::uint64_t abandoned0 = groups.patches_abandoned();
  const std::uint64_t routes0 = groups.routes();

  Rng flicker(p.in.digest);
  std::vector<std::pair<std::size_t, std::size_t>> removed(group_count);
  std::vector<double> join_us, leave_us, route_us, patch_us;
  std::uint64_t reused = 0, recompiled = 0;
  for (std::uint64_t r = 0; r < count; ++r) {
    const std::uint64_t rid = p.next_request++;
    const std::size_t g = r % group_count;
    Scope root(p.spans, "bench.group_request", -1, rid);
    GroupOp op;
    if (p.in.groups()) {
      op = p.in.ops[p.in.op_index(r)];
    } else if ((r / group_count) % 2 == 0) {
      std::vector<std::pair<std::size_t, std::size_t>> links;
      for (std::size_t src = 0; src < n; ++src) {
        for (std::size_t dst : shadow[g].destinations(src)) {
          links.emplace_back(src, dst);
        }
      }
      removed[g] = links[flicker.uniform(0, links.size() - 1)];
      op = {false, static_cast<std::uint16_t>(removed[g].first),
            static_cast<std::uint16_t>(removed[g].second)};
    } else {
      op = {true, static_cast<std::uint16_t>(removed[g].first),
            static_cast<std::uint16_t>(removed[g].second)};
    }
    {
      Scope s(p.spans, op.join ? "group.join" : "group.leave", root.id(), rid);
      if (op.join) {
        groups.join(g, op.src, op.dst);
        shadow[g].connect(op.src, op.dst);
      } else {
        groups.leave(g, op.src, op.dst);
        shadow[g].disconnect(op.src, op.dst);
      }
      (op.join ? join_us : leave_us).push_back(s.end());
    }
    {
      Scope s(p.spans, "group.route", root.id(), rid);
      const api::GroupRouteReport rep = groups.route(g, net, opts);
      route_us.push_back(s.end());
      reused += rep.levels_reused;
      recompiled += rep.levels_recompiled;
      p.check(rep.result, compact(expected_delivery(shadow[g])));
    }
    {
      RoutePlan out;
      Scope s(p.spans, "planner.patch", root.id(), rid);
      const planner::PatchOutcome po =
          planner::patch_route(net, shadow[g], last[g], plain, out, patch_cfg);
      patch_us.push_back(s.end());
      if (!po.patched) planner::compile_route(net, shadow[g], plain, out);
      last[g] = std::move(out);
    }
  }
  const std::uint64_t routes = groups.routes() - routes0;
  const std::uint64_t patched = groups.plans_patched() - patched0;
  const std::uint64_t abandoned = groups.patches_abandoned() - abandoned0;
  p.counters["group.patched"] = patched;
  p.counters["group.abandoned"] = abandoned;
  p.counters["group.replayed"] = groups.plans_replayed();
  p.counters["group.compiled"] = groups.plans_compiled();
  p.counters["group.levels_reused"] = reused;
  p.metrics["group.join_us_p50"] = median(join_us);
  p.metrics["group.leave_us_p50"] = median(leave_us);
  p.metrics["group.route_us_p50"] = median(route_us);
  p.metrics["group.patched_share"] = ratio(patched, routes);
  p.metrics["group.abandoned_share"] = ratio(abandoned, routes);
  p.metrics["group.levels_reused_share"] = ratio(reused, reused + recompiled);
  p.metrics["planner.patch_us_p50"] = median(patch_us);
}

/// Router probe: one ResilientRouter per shard, configured like the
/// cluster's workers, except that shard 1's router holds a FaultInjector
/// with a dead link (dead_link_plan). Every request shard 1 serves then
/// runs self-check detection, the retry ladder, the feedback fallback and
/// uncached engine routes (an armed injector bypasses the cache), while
/// shard 0 shows the healthy path. A fault that never fires fails the run.
void probe_router(Probe& p) {
  const std::size_t n = p.in.n;
  fault::FaultInjector injector(dead_link_plan(n));
  std::vector<std::unique_ptr<api::PlanCache>> caches;
  std::vector<std::unique_ptr<api::ResilientRouter>> routers;
  for (std::size_t s = 0; s < kShards; ++s) {
    caches.push_back(std::make_unique<api::PlanCache>(api::PlanCacheConfig{}));
    api::ResilientOptions ro;
    ro.plan_cache = caches.back().get();
    ro.faults = s == 1 ? &injector : nullptr;
    routers.push_back(std::make_unique<api::ResilientRouter>(n, ro));
  }
  const bool groups_mode = p.in.groups();
  api::GroupManager groups(n);
  if (groups_mode) {
    for (std::size_t g = 0; g < kGroups; ++g) {
      for (const auto& [src, dst] : p.in.seeds[g]) groups.join(g, src, dst);
      routers[primary_shard(mix64(g), kShards)]->route_group(g, groups);
    }
  } else {
    for (std::size_t i = 0; i < kColdWarm; ++i) {
      const auto& a = p.in.pool[i];
      routers[primary_shard(assignment_fingerprint(a), kShards)]->route(a);
    }
  }
  std::uint64_t detected0 = 0;
  for (const auto& r : routers) detected0 += r->faults_detected();
  std::vector<double> route_us;
  std::uint64_t attempts = 0, degraded = 0;
  for (std::uint64_t r = 0; r < p.spec.probe_requests; ++r) {
    const std::uint64_t rid = p.next_request++;
    Scope root(p.spans, "bench.router_request", -1, rid);
    api::RequestOutcome o;
    if (groups_mode) {
      const GroupOp& op = p.in.ops[p.in.op_index(r)];
      const std::size_t g = p.in.group_of(r);
      {
        Scope s(p.spans, op.join ? "group.join" : "group.leave", root.id(),
                rid);
        if (op.join) {
          groups.join(g, op.src, op.dst);
        } else {
          groups.leave(g, op.src, op.dst);
        }
      }
      Scope s(p.spans, "router.route", root.id(), rid);
      o = routers[primary_shard(mix64(g), kShards)]->route_group(g, groups);
      route_us.push_back(s.end());
    } else {
      const auto& a = p.in.assignment(r);
      Scope s(p.spans, "router.route", root.id(), rid);
      o = routers[primary_shard(assignment_fingerprint(a), kShards)]->route(a);
      route_us.push_back(s.end());
    }
    attempts += o.attempts;
    if (o.outcome == api::RouteOutcome::DeliveredDegraded) ++degraded;
    if (o.result) {
      p.check(*o.result, p.in.expected(r));
    } else {
      ++p.tally.attempted;
      ++p.tally.failed_outcomes;
    }
  }
  std::uint64_t detected = 0;
  for (const auto& r : routers) detected += r->faults_detected();
  detected -= detected0;
  if (detected == 0) {
    std::fprintf(stderr, "router probe: the injected fault never fired\n");
    ++p.tally.attempted;
    ++p.tally.failed_outcomes;
  }
  p.counters["router.attempts"] = attempts;
  p.counters["router.degraded"] = degraded;
  p.counters["fault.detected"] = detected;
  p.metrics["router.route_us_p50"] = median(route_us);
  p.metrics["router.attempts_per_request"] =
      ratio(attempts, p.spec.probe_requests);
  p.metrics["fault.detected_per_request"] =
      ratio(detected, p.spec.probe_requests);
}

/// Engine probe: uncached Brsmn::route with each engine, alternating, on
/// the first distinct assignments of the stream.
void probe_engines(Probe& p) {
  const std::size_t samples = p.in.n >= 1024 ? 24 : 96;
  Brsmn net(p.in.n);
  std::vector<double> us[2];
  const RouteEngine engines[2] = {RouteEngine::Scalar, RouteEngine::Packed};
  const char* names[2] = {"engine.scalar_route", "engine.packed_route"};
  for (std::size_t i = 0; i < samples; ++i) {
    const std::size_t k = i % p.stream.size();
    for (int e = 0; e < 2; ++e) {
      const std::uint64_t rid = p.next_request++;
      RouteOptions opts;
      opts.engine = engines[e];
      Scope s(p.spans, names[e], -1, rid);
      const RouteResult r = net.route(p.stream[k], opts);
      us[e].push_back(s.end());
      p.check(r, *p.stream_expected[k]);
    }
  }
  p.metrics["engine.scalar_route_us_p50"] = median(us[0]);
  p.metrics["engine.packed_route_us_p50"] = median(us[1]);
}

/// Replay cost (planner.replay_us_p50, self-check on as on the request
/// path) and self-check cost: replay each compiled plan with the online
/// self-check off and on, back to back, and take the median of the
/// paired differences. Measured here rather than on the path probe's
/// cache hits so that compile_cold, which has none, reports it too.
void probe_self_check(Probe& p) {
  const std::size_t plans = std::min<std::size_t>(16, p.stream.size());
  const std::size_t rounds = p.in.n >= 1024 ? 8 : 24;
  Brsmn net(p.in.n);
  std::vector<RoutePlan> compiled(plans);
  for (std::size_t i = 0; i < plans; ++i) {
    planner::compile_route(net, p.stream[i], RouteOptions{}, compiled[i]);
  }
  std::vector<double> diff_us, checked_us;
  for (std::size_t k = 0; k < rounds; ++k) {
    for (std::size_t i = 0; i < plans; ++i) {
      double us[2] = {0.0, 0.0};
      for (int on = 0; on < 2; ++on) {
        const std::uint64_t rid = p.next_request++;
        RouteOptions opts;
        opts.self_check = on == 1;
        Scope s(p.spans,
                on ? "fault.replay_checked" : "planner.replay_unchecked", -1,
                rid);
        const RouteResult r = net.route_replay(compiled[i], opts);
        us[on] = s.end();
        p.check(r, *p.stream_expected[i]);
      }
      diff_us.push_back(us[1] - us[0]);
      checked_us.push_back(us[1]);
    }
  }
  p.metrics["fault.self_check_us"] = median(diff_us);
  p.metrics["planner.replay_us_p50"] = median(checked_us);
}

/// Tracing overhead: closed-loop routes_per_s without hooks, then with a
/// MetricRegistry and Tracer attached and a span per request.
void probe_overhead(Probe& p, double seconds) {
  const double phase_s = std::max(0.5, seconds / 4.0);
  double rps[2] = {0.0, 0.0};
  for (int traced = 0; traced < 2; ++traced) {
    obs::MetricRegistry registry;
    obs::Tracer tracer;
    Hooks hooks;
    if (traced) hooks = {&registry, &tracer};
    Rig rig = build_rig(p.in, hooks, p.tally);
    std::uint64_t done = 0;
    const Clock::time_point start = Clock::now();
    const Clock::time_point deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(phase_s));
    std::map<std::uint64_t, std::int64_t> open_spans;  // request -> span
    closed_loop(
        UINT64_MAX, deadline,
        [&](std::uint64_t r) {
          if (traced) {
            const std::int64_t id =
                p.spans.open("traced.request", -1, p.next_request + r);
            open_spans[r] = id;
          }
          return submit_request(rig, p.in, r);
        },
        [&](std::uint64_t r, Clock::time_point, Clock::time_point,
            const std::optional<api::ClusterOutcome>& o) {
          if (traced) {
            p.spans.close(open_spans.at(r));
            open_spans.erase(r);
          }
          p.tally.check(o, p.in.expected(r));
          ++done;
        });
    rps[traced] = static_cast<double>(done) /
                  std::chrono::duration<double>(Clock::now() - start).count();
    p.next_request += done;
    p.conserve(rig);
  }
  p.metrics["bench.tracing_overhead"] = 1.0 - rps[1] / rps[0];
}

Probe run_probes(const WorkloadSpec& spec, const Inputs& in, SpanLog& spans,
                 double seconds) {
  Probe p{spec, in, spans, {}, {}, {}, 0, {}, {}};
  build_stream(p);
  probe_cluster(p);
  probe_path(p);
  probe_groups(p);
  probe_router(p);
  probe_engines(p);
  probe_self_check(p);
  if (seconds > 0.0) probe_overhead(p, seconds);
  return p;
}

const char* unit_of(const std::string& name) {
  if (name.find("_us") != std::string::npos) return "us";
  if (name.rfind("self_ms.", 0) == 0) return "ms";
  if (name.find("share") != std::string::npos ||
      name == "bench.tracing_overhead") {
    return "share";
  }
  if (name == "cluster.shard_skew") return "ratio";
  return "count";
}

int run_traced(const WorkloadSpec& spec, std::uint64_t seed, double seconds,
               const std::string& spans_out) {
  const Inputs in = make_inputs(spec, seed);
  SpanLog spans;
  Probe p = run_probes(spec, in, spans, seconds);
  // Self time of the fixed-count probes, by layer; the "traced" spans of
  // the timed overhead phase are written out but not summed here.
  const auto self = spans.self_ms();
  for (const char* layer : {"bench", "cluster", "placement", "plan_cache",
                            "planner", "group", "router", "engine", "fault"}) {
    const auto it = self.find(layer);
    p.metrics[std::string("self_ms.") + layer] =
        it == self.end() ? 0.0 : it->second;
  }
  const std::string host = host_json(spec, seed);
  if (!spans_out.empty()) spans.write(spans_out, host);
  report_tally("traced probes", p.tally);
  const bool ok = tally_clean(p.tally);
  std::printf("# host %s\n", host.c_str());
  std::printf("# counters %s\n", counters_json(p.counters).c_str());
  Metrics out;
  for (const auto& [name, value] : p.metrics) {
    out.push_back({name, {value, unit_of(name)}});
  }
  print_result(ok, p.tally, out);
  return ok ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Self-test: same seed -> identical counters; different seed -> different
// inputs.

std::map<std::string, std::uint64_t> small_run_counters(
    const WorkloadSpec& spec, std::uint64_t seed, bool& clean) {
  const Inputs in = make_inputs(spec, seed);
  Tally warm, tally;
  Rig rig = build_rig(in, Hooks{}, warm);
  run_count(rig, in, 400, tally);
  clean = clean && conserved(rig) && tally_clean(warm) && tally_clean(tally);
  auto counters = cluster_counters(rig, tally);
  WorkloadSpec small = spec;
  small.probe_requests = 128;
  SpanLog spans;
  const Probe p = run_probes(small, in, spans, 0.0);
  clean = clean && tally_clean(p.tally);
  for (const auto& [k, v] : p.counters) counters["probe." + k] = v;
  counters["inputs.digest"] = in.digest;
  return counters;
}

int selftest() {
  int failures = 0;
  for (const auto& spec : kWorkloads) {
    bool clean = true;
    const auto a = small_run_counters(spec, 11, clean);
    const auto b = small_run_counters(spec, 11, clean);
    const Inputs other = make_inputs(spec, 12);
    const bool same = a == b;
    const bool differ = other.digest != a.at("inputs.digest");
    const bool fired = a.at("probe.fault.detected") > 0;
    const bool patched = spec.kind != Kind::GroupChurn ||
                         a.at("group.patched") > a.at("group.compiled");
    std::printf(
        "%-20s repeat=%s new_seed_differs=%s clean=%s fault=%s patch=%s %s\n",
                spec.name, same ? "ok" : "FAIL", differ ? "ok" : "FAIL",
                clean ? "ok" : "FAIL", fired ? "ok" : "FAIL",
                patched ? "ok" : "FAIL", counters_json(a).c_str());
    if (!same) {
      std::printf("  second run: %s\n", counters_json(b).c_str());
    }
    failures += !(same && differ && clean && fired && patched);
  }
  return failures == 0 ? 0 : 1;
}

// ---------------------------------------------------------------------------

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "cluster_bench: %s\nusage: cluster_bench --workload <name> "
               "--seed <n> --seconds <s> --trace <0|1> "
               "[--spans-out <path>]\n       cluster_bench --selftest\n"
               "workloads:",
               why.c_str());
  for (const auto& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

std::uint64_t parse_uint(const std::string& flag, const std::string& v) {
  char* end = nullptr;
  const unsigned long long x = std::strtoull(v.c_str(), &end, 10);
  if (v.empty() || *end != '\0') usage("bad value for " + flag + ": " + v);
  return x;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, spans_out;
  std::optional<std::uint64_t> seed;
  double seconds = 0.0;
  int trace = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selftest") {
      try {
        return selftest();
      } catch (const std::exception& e) {
        std::fprintf(stderr, "selftest failed: %s\n", e.what());
        return 1;
      }
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = parse_uint(flag, value);
    } else if (flag == "--seconds") {
      seconds = static_cast<double>(parse_uint(flag, value));
    } else if (flag == "--trace") {
      trace = static_cast<int>(parse_uint(flag, value));
    } else if (flag == "--spans-out") {
      spans_out = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  const WorkloadSpec* spec = find_workload(workload);
  if (spec == nullptr) usage("unknown workload '" + workload + "'");
  if (!seed) usage("--seed is required");
  if (trace != 0 && trace != 1) usage("--trace must be 0 or 1");
  if (seconds <= 0.0) usage("--seconds must be positive");
  try {
    return trace == 1 ? run_traced(*spec, *seed, seconds, spans_out)
                      : run_untraced(*spec, *seed, seconds);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cluster_bench: %s\n", e.what());
    return 1;
  }
}
