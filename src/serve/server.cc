#include "serve/server.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <tuple>
#include <utility>

#include "blas/getrf.h"
#include "blas/lu_kernels.h"
#include "core/offload_functional.h"
#include "hpl/mixed.h"
#include "serve/lu_cache.h"
#include "tune/bucket.h"
#include "tune/tuner.h"
#include "util/rng.h"

namespace xphi::serve {

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  std::size_t idx = rank <= 1 ? 0 : static_cast<std::size_t>(rank) - 1;
  if (idx >= values.size()) idx = values.size() - 1;
  return values[idx];
}

namespace {

// Dispatcher <-> worker message tags.
constexpr int kTagCmd = 11;
constexpr int kTagDone = 12;
// Cmd opcodes (first payload element).
constexpr double kOpStop = 0;
constexpr double kOpBatch = 1;

/// uint64 values (seeds, job ids) ride the double-typed Payload as two
/// 32-bit halves — a single double would silently drop low bits of
/// full-range seeds.
void push_u64(net::Payload& p, std::uint64_t v) {
  p.push_back(static_cast<double>(v >> 32));
  p.push_back(static_cast<double>(v & 0xffffffffull));
}

std::uint64_t read_u64(const net::Payload& p, std::size_t& at) {
  const std::uint64_t hi = static_cast<std::uint64_t>(p[at++]);
  const std::uint64_t lo = static_cast<std::uint64_t>(p[at++]);
  return (hi << 32) | lo;
}

std::uint64_t fnv1a(std::uint64_t h, const std::string& s) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

/// Worker rank body: regenerate A, factor (or hit the shared cache), solve
/// every right-hand side of the batch, respond. Final payload element
/// layout documented inline; all timing here is wall-clock and feeds
/// metrics only.
///
/// Mixed-precision batches factor through hpl::factor_mixed (fp32, half the
/// cached bytes) and answer each job with hpl::refine_mixed_or_fp64 —
/// initial fp32 solve plus fp64 iterative refinement against the
/// regenerated A, gated by the standard scaled residual, and an fp64
/// factor + solve of A where the refinement stalls. Both are deterministic,
/// so a cache hit still returns bitwise the first solver's answer.
void worker_main(net::Comm& comm, const ServeConfig& cfg,
                 ShardedLuCache* cache, const std::string& machine) {
  for (;;) {
    net::Payload cmd = comm.recv(0, kTagCmd);
    if (cmd.empty() || cmd[0] == kOpStop) break;
    std::size_t at = 1;
    const std::uint64_t batch_id = read_u64(cmd, at);
    const std::size_t n = static_cast<std::size_t>(cmd[at++]);
    const std::size_t nb = static_cast<std::size_t>(cmd[at++]);
    const std::uint64_t matrix_seed = read_u64(cmd, at);
    const bool mixed = cmd[at++] != 0;
    const std::size_t job_count = static_cast<std::size_t>(cmd[at++]);
    std::vector<std::uint64_t> job_ids(job_count), rhs_seeds(job_count);
    for (std::size_t j = 0; j < job_count; ++j) {
      job_ids[j] = read_u64(cmd, at);
      rhs_seeds[j] = read_u64(cmd, at);
    }

    const auto t0 = std::chrono::steady_clock::now();
    // The fp64 matrix is regenerated for every batch: it is the content-hash
    // source in both modes, the factorization input for fp64, and the
    // residual operand of the mixed refinement (needed even on a cache hit).
    util::Matrix<double> a(n, n);
    util::fill_hpl_matrix<double>(a.view(), matrix_seed);
    // fp32 factors of the same matrix must never alias the fp64 entry: the
    // bucket carries the precision, the content hash stays the fp64 bits.
    std::string bucket = tune::bucket(n, n, nb).key();
    if (mixed) bucket += "|fp32";
    const CacheKey key{machine, std::move(bucket),
                       content_hash_doubles(a.data(), n * n)};

    std::shared_ptr<const Factorization> fac;
    bool hit = false;
    if (cfg.use_cache && cache != nullptr) {
      fac = cache->find(key);
      hit = fac != nullptr;
    }
    double factor_s = 0;
    hpl::MixedOptions mo;
    mo.nb = nb;
    if (!fac) {
      auto fresh = std::make_shared<Factorization>();
      bool ok;
      if (mixed) {
        fresh->precision = hpl::Precision::kMixed;
        ok = hpl::factor_mixed(a.view(), fresh->mixed, mo);
      } else {
        // Factor a copy; `a` stays pristine for the mixed/hash paths.
        fresh->lu = util::Matrix<double>(n, n);
        for (std::size_t r = 0; r < n; ++r)
          std::memcpy(fresh->lu.data() + r * fresh->lu.ld(),
                      a.data() + r * a.ld(), n * sizeof(double));
        fresh->ipiv.assign(n, 0);
        if (cfg.factor_cards > 0) {
          // Trailing updates through the offload engine (cards +
          // reliability protocol): the path chaos tests use to kill a card
          // mid-factorization. Dead-card re-homing never changes a bit.
          // One engine per factorization serves all its stages.
          core::FunctionalOffloadConfig oc;
          oc.cards = cfg.factor_cards;
          oc.injector = cfg.injector;
          core::OffloadEngine engine(oc);
          ok = blas::getrf_stages<double>(fresh->lu.view(), fresh->ipiv, nb,
                                          {}, core::OffloadUpdate{engine});
        } else {
          ok = blas::getrf_blocked<double>(fresh->lu.view(), fresh->ipiv, nb);
        }
      }
      // The seeded HPL matrices are general; an exactly zero pivot would be
      // astronomically unlucky, but fail loudly rather than serve garbage.
      if (!ok) throw std::runtime_error("serve worker: zero pivot");
      factor_s =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count();
      if (cfg.use_cache && cache != nullptr) cache->insert(key, fresh);
      fac = std::move(fresh);
    }

    // Response: [batch_id(2), hit, factor_s, job_count, n,
    //            per job: id(2), solve_s, x[0..n)].
    net::Payload resp;
    resp.reserve(7 + job_count * (3 + n));
    push_u64(resp, batch_id);
    resp.push_back(hit ? 1.0 : 0.0);
    resp.push_back(factor_s);
    resp.push_back(static_cast<double>(job_count));
    resp.push_back(static_cast<double>(n));
    std::vector<double> b(n);
    for (std::size_t j = 0; j < job_count; ++j) {
      util::Rng rng(rhs_seeds[j]);
      for (std::size_t i = 0; i < n; ++i) b[i] = rng.next_centered();
      const auto s0 = std::chrono::steady_clock::now();
      if (mixed) {
        const hpl::MixedSolveResult sol =
            hpl::refine_mixed_or_fp64(a.view(), b, fac->mixed, mo);
        if (!sol.ok)
          throw std::runtime_error(
              "serve worker: mixed solve missed the residual gate");
        b = sol.x;
      } else {
        blas::lu_solve_vector<double>(fac->lu.view(), fac->ipiv, b);
      }
      const double solve_s =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - s0)
              .count();
      push_u64(resp, job_ids[j]);
      resp.push_back(solve_s);
      resp.insert(resp.end(), b.begin(), b.end());
    }
    comm.send(0, kTagDone, std::move(resp));
  }
}

/// One dispatched batch the dispatcher has not collected yet.
struct InFlightBatch {
  std::uint64_t batch_id = 0;
  int worker = 0;                  // 0-based worker index (rank worker+1)
  double vstart = 0, vfinish = 0;  // virtual service interval
  double vcost = 0;
  bool modeled_first = false;  // cost model charged the factorization
  std::vector<std::size_t> jobs;  // trace indices, batch order
  double request_bytes = 0;
};

struct Dispatcher {
  const std::vector<Job>& trace;
  const ServeConfig& cfg;
  net::Comm& comm;
  ServeReport& report;

  std::deque<std::size_t> lanes[kLaneCount];
  std::vector<double> worker_vfree;
  std::vector<int> inflight;
  std::deque<InFlightBatch> outstanding;  // dispatch order
  // (n, matrix_seed, precision): fp32 and fp64 factors of one matrix are
  // distinct cache entries, so the cost model charges each its own first
  // factorization.
  std::set<std::tuple<std::size_t, std::uint64_t, int>> modeled_factored;
  int interactive_credit = 0;
  std::uint64_t next_batch_id = 0;
  char buf[256];

  Dispatcher(const std::vector<Job>& t, const ServeConfig& c, net::Comm& cm,
             ServeReport& r)
      : trace(t), cfg(c), comm(cm), report(r) {
    worker_vfree.assign(static_cast<std::size_t>(cfg.workers), 0.0);
    inflight.assign(static_cast<std::size_t>(cfg.workers), 0);
    interactive_credit = cfg.lane_weight;
  }

  void log(const char* line) { report.decisions.emplace_back(line); }

  double factor_cost(std::size_t n, hpl::Precision prec) const {
    const double nd = static_cast<double>(n);
    const double mult = prec == hpl::Precision::kMixed
                            ? cfg.mixed_factor_cost_mult
                            : 1.0;
    return nd * nd * nd * cfg.factor_cost_scale * mult;
  }
  double solve_cost(std::size_t n, hpl::Precision prec) const {
    const double nd = static_cast<double>(n);
    const double mult =
        prec == hpl::Precision::kMixed ? cfg.mixed_solve_cost_mult : 1.0;
    return nd * nd * cfg.solve_cost_scale * mult;
  }

  /// Batch compatibility: one factorization serves all of a batch's solves,
  /// so jobs must share the matrix AND the precision it was factored in.
  static bool compatible(const Job& a, const Job& b) {
    return a.n == b.n && a.matrix_seed == b.matrix_seed &&
           a.precision == b.precision;
  }

  std::size_t compatible_queued(const Job& head) const {
    std::size_t count = 0;
    for (std::size_t idx : lanes[static_cast<int>(Lane::kBatch)])
      if (compatible(trace[idx], head)) ++count;
    return count;
  }

  /// The lane to dispatch from at virtual time `now`, or -1 when nothing is
  /// ready (batch head still inside its coalescing window). `flush` = trace
  /// exhausted: windows no longer apply.
  int pick_lane(double now, bool flush) const {
    const auto& iq = lanes[static_cast<int>(Lane::kInteractive)];
    const auto& bq = lanes[static_cast<int>(Lane::kBatch)];
    bool batch_ready = false, batch_starved = false;
    if (!bq.empty()) {
      const Job& head = trace[bq.front()];
      const double age = now - head.arrival_s;
      batch_ready = flush || age >= cfg.batch_window_us * 1e-6 ||
                    compatible_queued(head) >=
                        static_cast<std::size_t>(cfg.max_batch);
      batch_starved = age >= cfg.starvation_age_us * 1e-6;
    }
    if (batch_starved) return static_cast<int>(Lane::kBatch);
    if (batch_ready && interactive_credit <= 0)
      return static_cast<int>(Lane::kBatch);
    if (!iq.empty()) return static_cast<int>(Lane::kInteractive);
    if (batch_ready) return static_cast<int>(Lane::kBatch);
    return -1;
  }

  int free_worker() const {
    int best = -1;
    for (int w = 0; w < cfg.workers; ++w) {
      if (inflight[w] >= cfg.worker_inflight) continue;
      if (best < 0 || worker_vfree[w] < worker_vfree[best]) best = w;
    }
    return best;
  }

  void dispatch_one(int lane, double now) {
    auto& q = lanes[lane];
    const int w = free_worker();
    assert(w >= 0 && !q.empty());
    std::vector<std::size_t> batch_jobs;
    batch_jobs.push_back(q.front());
    q.pop_front();
    const Job& head = trace[batch_jobs[0]];
    if (lane == static_cast<int>(Lane::kBatch)) {
      // Coalesce every queued compatible job, queue order, up to max_batch.
      for (auto it = q.begin();
           it != q.end() &&
           batch_jobs.size() < static_cast<std::size_t>(cfg.max_batch);) {
        const Job& j = trace[*it];
        if (compatible(j, head)) {
          batch_jobs.push_back(*it);
          it = q.erase(it);
        } else {
          ++it;
        }
      }
      interactive_credit = cfg.lane_weight;
    } else if (!lanes[static_cast<int>(Lane::kBatch)].empty()) {
      --interactive_credit;
    }

    const bool first =
        !cfg.use_cache ||
        modeled_factored
            .emplace(head.n, head.matrix_seed,
                     static_cast<int>(head.precision))
            .second;
    const double fcost = factor_cost(head.n, head.precision);
    const double cost =
        (first ? fcost : 0.0) + static_cast<double>(batch_jobs.size()) *
                                    solve_cost(head.n, head.precision);
    const double vstart = std::max(now, worker_vfree[w]);
    const double vfinish = vstart + cost;
    worker_vfree[w] = vfinish;
    ++inflight[w];

    if (first)
      report.timeline.record(static_cast<std::size_t>(w),
                             trace::SpanKind::kPanelFactor, vstart,
                             vstart + fcost);
    report.timeline.record(static_cast<std::size_t>(w), trace::SpanKind::kTrsm,
                           vstart + (first ? fcost : 0.0), vfinish);

    net::Payload msg;
    msg.push_back(kOpBatch);
    push_u64(msg, next_batch_id);
    msg.push_back(static_cast<double>(head.n));
    msg.push_back(static_cast<double>(cfg.nb));
    push_u64(msg, head.matrix_seed);
    msg.push_back(head.precision == hpl::Precision::kMixed ? 1.0 : 0.0);
    msg.push_back(static_cast<double>(batch_jobs.size()));
    for (std::size_t idx : batch_jobs) {
      push_u64(msg, trace[idx].id);
      push_u64(msg, trace[idx].rhs_seed);
    }
    const double request_bytes = static_cast<double>(msg.size()) * 8;
    comm.isend(w + 1, kTagCmd, std::move(msg));

    std::snprintf(buf, sizeof buf,
                  "dispatch batch=%llu worker=%d lane=%s n=%zu seed=%llu "
                  "prec=%s jobs=%zu first=%d start_us=%.6f finish_us=%.6f",
                  static_cast<unsigned long long>(next_batch_id), w,
                  lane_name(static_cast<Lane>(lane)), head.n,
                  static_cast<unsigned long long>(head.matrix_seed),
                  hpl::precision_name(head.precision), batch_jobs.size(),
                  first ? 1 : 0, vstart * 1e6, vfinish * 1e6);
    log(buf);

    InFlightBatch b;
    b.batch_id = next_batch_id++;
    b.worker = w;
    b.vstart = vstart;
    b.vfinish = vfinish;
    b.vcost = cost;
    b.modeled_first = first;
    b.jobs = std::move(batch_jobs);
    b.request_bytes = request_bytes;
    outstanding.push_back(std::move(b));
    ++report.batches;
  }

  void dispatch_ready(double now, bool flush) {
    for (;;) {
      if (free_worker() < 0) return;
      const int lane = pick_lane(now, flush);
      if (lane < 0) return;
      dispatch_one(lane, now);
    }
  }

  /// Index into `outstanding` of the batch that completes next in virtual
  /// time (ties: lower batch_id, i.e. dispatch order).
  std::size_t next_completion() const {
    std::size_t best = 0;
    for (std::size_t i = 1; i < outstanding.size(); ++i)
      if (outstanding[i].vfinish < outstanding[best].vfinish) best = i;
    return best;
  }

  void collect_one() {
    const std::size_t at_idx = next_completion();
    InFlightBatch batch = outstanding[at_idx];
    outstanding.erase(outstanding.begin() +
                      static_cast<std::ptrdiff_t>(at_idx));
    // Per-worker FIFO: batches dispatched to one worker complete in
    // dispatch order, so this recv matches exactly the expected batch.
    net::Payload resp = comm.recv(batch.worker + 1, kTagDone);
    std::size_t at = 0;
    const std::uint64_t batch_id = read_u64(resp, at);
    assert(batch_id == batch.batch_id);
    (void)batch_id;
    const bool hit = resp[at++] != 0;
    const double factor_s = resp[at++];
    const std::size_t job_count = static_cast<std::size_t>(resp[at++]);
    const std::size_t n = static_cast<std::size_t>(resp[at++]);
    assert(job_count == batch.jobs.size());
    const double response_bytes = static_cast<double>(resp.size()) * 8;
    const double per_job_bytes =
        (batch.request_bytes + response_bytes) /
        static_cast<double>(job_count);
    for (std::size_t j = 0; j < job_count; ++j) {
      const std::uint64_t job_id = read_u64(resp, at);
      const double solve_s = resp[at++];
      const std::size_t idx = batch.jobs[j];
      assert(trace[idx].id == job_id);
      (void)job_id;
      JobOutcome& out = report.jobs[idx];
      out.rejected = false;
      out.cache_hit = hit;
      out.worker = batch.worker;
      out.batch_id = batch.batch_id;
      out.virtual_latency_s = batch.vfinish - trace[idx].arrival_s;
      out.wall_service_s =
          factor_s / static_cast<double>(job_count) + solve_s;
      out.x.assign(resp.begin() + static_cast<std::ptrdiff_t>(at),
                   resp.begin() + static_cast<std::ptrdiff_t>(at + n));
      at += n;
      // Tenant attribution: even split of the batch's bytes and busy time.
      TenantRollup& tr = report.tenants[static_cast<std::size_t>(
          trace[idx].tenant)];
      tr.comm_bytes += per_job_bytes;
      tr.worker_busy_s += batch.vcost / static_cast<double>(job_count);
      if (hit) ++tr.cache_hits;
    }
    if (hit)
      ++report.cache_hits;
    else
      ++report.cache_misses;
    --inflight[batch.worker];
  }

  void collect_until(double vtime) {
    while (!outstanding.empty() &&
           outstanding[next_completion()].vfinish <= vtime)
      collect_one();
  }

  void run() {
    // Arrival order (generate_trace emits sorted; re-sorting keeps replayed
    // or hand-built traces deterministic too).
    std::vector<std::size_t> order(trace.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       if (trace[a].arrival_s != trace[b].arrival_s)
                         return trace[a].arrival_s < trace[b].arrival_s;
                       return trace[a].id < trace[b].id;
                     });

    double now = 0;
    for (std::size_t idx : order) {
      const Job& job = trace[idx];
      now = job.arrival_s;
      collect_until(now);
      dispatch_ready(now, /*flush=*/false);
      auto& q = lanes[static_cast<int>(job.lane)];
      if (q.size() >= cfg.admission_queue) {
        report.jobs[idx].rejected = true;
        ++report.rejected;
        std::snprintf(buf, sizeof buf,
                      "reject job=%llu tenant=%d lane=%s depth=%zu at_us=%.6f",
                      static_cast<unsigned long long>(job.id), job.tenant,
                      lane_name(job.lane), q.size(), now * 1e6);
        log(buf);
      } else {
        q.push_back(idx);
      }
      dispatch_ready(now, /*flush=*/false);
    }
    // Trace exhausted: windows no longer apply; alternate draining
    // completions (advancing virtual time) with dispatching freed workers.
    for (;;) {
      dispatch_ready(now, /*flush=*/true);
      if (outstanding.empty()) break;
      const InFlightBatch& next = outstanding[next_completion()];
      now = std::max(now, next.vfinish);
      collect_one();
    }
    assert(lanes[0].empty() && lanes[1].empty());
  }
};

}  // namespace

ServeReport run_server(const std::vector<Job>& trace,
                       const ServeConfig& config) {
  ServeConfig cfg = config;
  if (cfg.workers < 1) cfg.workers = 1;
  if (cfg.max_batch < 1) cfg.max_batch = 1;
  if (cfg.worker_inflight < 1) cfg.worker_inflight = 1;
  if (cfg.lane_weight < 1) cfg.lane_weight = 1;
  if (cfg.admission_queue < 1) cfg.admission_queue = 1;

  ServeReport report;
  report.jobs.resize(trace.size());
  int max_tenant = 0;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    report.jobs[i].id = trace[i].id;
    report.jobs[i].tenant = trace[i].tenant;
    report.jobs[i].lane = trace[i].lane;
    report.jobs[i].n = trace[i].n;
    report.jobs[i].precision = trace[i].precision;
    max_tenant = std::max(max_tenant, trace[i].tenant);
  }
  report.tenants.resize(static_cast<std::size_t>(max_tenant) + 1);
  for (std::size_t t = 0; t < report.tenants.size(); ++t)
    report.tenants[t].tenant = static_cast<int>(t);

  ShardedLuCache cache(cfg.cache_shards, cfg.cache_capacity);
  const std::string machine = tune::default_fingerprint();

  net::World world(cfg.workers + 1);
  world.set_recv_timeout(cfg.recv_timeout_seconds);
  // Backpressure wiring: the healthy mailbox bound follows directly from
  // the admission parameters — each worker holds at most worker_inflight
  // commands, the dispatcher at most workers * worker_inflight uncollected
  // responses. Anything past that is a scheduling bug and is counted (not
  // fatal) by the World as a soft-cap breach.
  world.set_mailbox_soft_cap(
      cfg.mailbox_soft_cap != 0
          ? cfg.mailbox_soft_cap
          : static_cast<std::size_t>(cfg.workers * cfg.worker_inflight) + 1);
  if (cfg.injector != nullptr) world.set_fault_injector(cfg.injector);

  const auto wall0 = std::chrono::steady_clock::now();
  world.run([&](net::Comm& comm) {
    if (comm.rank() == 0) {
      Dispatcher d(trace, cfg, comm, report);
      d.run();
      for (int w = 0; w < cfg.workers; ++w)
        comm.send(w + 1, kTagCmd, net::Payload{kOpStop});
    } else {
      worker_main(comm, cfg, &cache, machine);
    }
  });
  report.wall_elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall0)
          .count();

  report.comm.resize(static_cast<std::size_t>(cfg.workers) + 1);
  for (int r = 0; r <= cfg.workers; ++r) {
    report.comm[static_cast<std::size_t>(r)] = world.stats(r);
    report.soft_cap_breaches +=
        report.comm[static_cast<std::size_t>(r)].soft_cap_breaches;
  }

  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const std::string& line : report.decisions) h = fnv1a(h, line);
  report.decision_hash = h;

  std::vector<double> vlat, wserv;
  std::vector<std::vector<double>> tvlat(report.tenants.size()),
      twserv(report.tenants.size());
  for (const JobOutcome& out : report.jobs) {
    auto& tr = report.tenants[static_cast<std::size_t>(out.tenant)];
    ++tr.jobs;
    if (out.rejected) {
      ++tr.rejected;
      continue;
    }
    ++report.completed;
    vlat.push_back(out.virtual_latency_s);
    wserv.push_back(out.wall_service_s);
    tvlat[static_cast<std::size_t>(out.tenant)].push_back(
        out.virtual_latency_s);
    twserv[static_cast<std::size_t>(out.tenant)].push_back(
        out.wall_service_s);
  }
  report.p50_virtual_latency_s = percentile(vlat, 0.50);
  report.p99_virtual_latency_s = percentile(vlat, 0.99);
  report.p50_wall_service_s = percentile(wserv, 0.50);
  report.p99_wall_service_s = percentile(wserv, 0.99);
  for (std::size_t t = 0; t < report.tenants.size(); ++t) {
    report.tenants[t].p50_virtual_latency_s = percentile(tvlat[t], 0.50);
    report.tenants[t].p99_virtual_latency_s = percentile(tvlat[t], 0.99);
    report.tenants[t].p50_wall_service_s = percentile(twserv[t], 0.50);
    report.tenants[t].p99_wall_service_s = percentile(twserv[t], 0.99);
  }
  if (report.wall_elapsed_s > 0)
    report.throughput_jobs_per_s =
        static_cast<double>(report.completed) / report.wall_elapsed_s;

  const auto cache_stats = cache.stats();
  (void)cache_stats;  // worker-observed hits already counted per batch
  return report;
}

}  // namespace xphi::serve
