// Serving workload: forward-only GCN and GAT inference behind one
// ServingHost (static batching, Normal priority), fed seeded kNN point-cloud
// requests of mixed sizes. It runs the engine the other way round from the
// training workloads: many small forward batches, where queueing, collation
// and per-batch set-up count and backward and sharding do nothing.
//
// Two timed phases: an open-loop Poisson phase at a fixed rate (latency,
// timed from each request's scheduled send time) and a closed-window phase
// that keeps a fixed number of requests outstanding (capacity).
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "api/triad.h"
#include "reference.h"
#include "serve/collate.h"
#include "serve/host.h"
#include "support/parallel.h"
#include "util.h"

namespace perfbench {

namespace {

using namespace triad;
using serve::Admission;
using serve::InferenceRequest;
using serve::InferenceResult;
using serve::Priority;
using serve::ServerStats;
using serve::ServingHost;

struct ServeSpec {
  std::vector<std::int64_t> sizes;  ///< points per request
  std::int64_t knn = 16;
  std::int64_t feat = 32;           ///< 3 coordinates + seeded noise channels
  int pool = 128;                   ///< distinct requests
  double rate_rps = 150;            ///< open-loop Poisson rate
  int window = 32;                  ///< closed-window outstanding requests
  int workers = 1;
  /// Each serving worker runs its batch on its own thread: batches of a few
  /// hundred vertices are too small to pay for a parallel fan-out.
  int pool_threads = 1;
  int max_batch = 8;
  std::int64_t max_wait_us = 200;
  int warm_requests = 512;          ///< untimed burst through the timed host
};

ServeSpec spec_for(const Config& cfg) {
  ServeSpec s;
  s.sizes = {128, 256, 512};
  if (cfg.smoke) {
    s.sizes = {24, 32, 48};
    s.pool = 24;
    s.rate_rps = 300;
    s.warm_requests = 64;
  }
  return s;
}

constexpr int kSetupReps = 3;
constexpr int kModels = 2;  // 0 = GCN, 1 = GAT
constexpr double kRefTol = 1e-4;  // rel_error() units
// The latency tail is taken per window of kTailChunk consecutive requests
// (the highest percentile with ten samples beyond it is then p90) and
// capacity per window of kRateChunk completions; each is reported as the
// median over windows, so a millisecond-scale stall of the host hits a few
// windows instead of the whole figure.
constexpr std::size_t kTailChunk = 100;
constexpr std::size_t kRateChunk = 1000;
constexpr std::size_t kTracedRequests = 4000;  // request spans per phase

GcnConfig gcn_config(const ServeSpec& s) {
  GcnConfig c;
  c.in_dim = s.feat;
  c.hidden = {64};
  c.num_classes = 8;
  return c;
}

GatConfig gat_config(const ServeSpec& s) {
  GatConfig c;
  c.in_dim = s.feat;
  c.hidden = 64;
  c.heads = 1;
  c.layers = 2;
  c.num_classes = 8;
  return c;
}

/// The request pool: entry i has sizes[i % sizes.size()] points, so every
/// size is equally represented whatever the seed.
std::vector<InferenceRequest> make_pool(const Config& cfg, const ServeSpec& s) {
  Span span("synth", "graph");
  std::vector<InferenceRequest> pool;
  for (int i = 0; i < s.pool; ++i) {
    Rng rng(cfg.seed * 1000003u + static_cast<std::uint64_t>(i));
    const std::int64_t n = s.sizes[static_cast<std::size_t>(i) % s.sizes.size()];
    const Tensor pts = synthetic_point_cloud(
        n, 3, static_cast<std::int64_t>(rng.uniform_int(40)), rng);
    InferenceRequest req;
    req.graph = std::make_shared<const Graph>(n, knn_edges(pts, s.knn));
    req.features = Tensor(n, s.feat, MemTag::kInput);
    for (std::int64_t v = 0; v < n; ++v) {
      for (std::int64_t j = 0; j < s.feat; ++j) {
        req.features.at(v, j) = j < 3 ? pts.at(v, j) : rng.normalf();
      }
    }
    pool.push_back(std::move(req));
  }
  return pool;
}

/// One realization (pool entries) of every batch shape the phases can form:
/// batches of 1..max_batch requests, whose shape is fixed by their total
/// point count.
std::vector<std::vector<int>> batch_shapes(const ServeSpec& s) {
  std::map<std::int64_t, std::vector<int>> by_points;
  const auto kinds = static_cast<int>(s.sizes.size());
  // counts[k] = requests of size k in the batch; enumerate all multisets.
  std::vector<int> counts(static_cast<std::size_t>(kinds), 0);
  std::function<void(int, int)> rec = [&](int k, int left) {
    if (k == kinds) {
      std::int64_t points = 0;
      std::vector<int> entries;
      for (int q = 0; q < kinds; ++q) {
        points += counts[q] * s.sizes[q];
        for (int c = 0; c < counts[q]; ++c) entries.push_back(q + c * kinds);
      }
      if (!entries.empty()) by_points.emplace(points, entries);
      return;
    }
    for (int c = 0; c <= left; ++c) {
      counts[k] = c;
      rec(k + 1, left - c);
    }
    counts[k] = 0;
  };
  rec(0, s.max_batch);
  std::vector<std::vector<int>> out;
  for (auto& [points, entries] : by_points) out.push_back(entries);
  return out;
}

api::Model make_model(int which, const ServeSpec& s, unsigned init_seed) {
  api::CompileOptions opts;
  opts.init_seed = init_seed;
  const api::Engine engine(opts);
  if (which == 0) return engine.compile(std::make_shared<api::Gcn>(gcn_config(s)));
  return engine.compile(std::make_shared<api::Gat>(gat_config(s)));
}

serve::ModelOptions model_options(const ServeSpec& s) {
  serve::ModelOptions o;
  o.batch.max_batch = s.max_batch;
  o.batch.max_wait_us = s.max_wait_us;
  o.batch.queue_capacity = 1 << 16;  // deep enough that nothing is refused
  return o;
}

struct Setup {
  std::vector<InferenceRequest> pool;
  std::vector<api::Model> models;
  std::vector<std::string> names;
  /// workers = 0: batches run only under pump(), so every batch shape can be
  /// formed on purpose. Shares the PlanCache entries with `host`.
  std::unique_ptr<ServingHost> warm_host;
  std::unique_ptr<ServingHost> host;
  double synth_s = 0, seconds = 0;
};

/// Submits `entries` of model `m` to a pump-driven host as one batch.
std::vector<InferenceResult> run_batch(ServingHost& h, const std::string& name,
                                       const Setup& st,
                                       const std::vector<int>& entries) {
  std::vector<std::future<InferenceResult>> futs(entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const Admission a = h.try_submit(name, st.pool[entries[i]],
                                     Priority::Normal, &futs[i]);
    if (a != Admission::Accepted) throw Error("warm-up submission refused");
  }
  h.pump();
  std::vector<InferenceResult> out;
  for (auto& f : futs) out.push_back(f.get());
  return out;
}

std::unique_ptr<Setup> set_up(const Config& cfg, const ServeSpec& spec,
                              unsigned init_seed, double start_s) {
  auto st = std::make_unique<Setup>();
  const double t = now_s();
  st->pool = make_pool(cfg, spec);
  st->synth_s = now_s() - t;

  serve::HostConfig warm_cfg;
  warm_cfg.workers = 0;
  st->warm_host = std::make_unique<ServingHost>(warm_cfg);
  serve::HostConfig host_cfg;
  host_cfg.workers = spec.workers;
  st->host = std::make_unique<ServingHost>(host_cfg);
  for (int m = 0; m < kModels; ++m) {
    st->models.push_back(make_model(m, spec, init_seed));
    st->names.push_back(st->models[m].register_with(*st->warm_host, model_options(spec)));
    st->models[m].register_with(*st->host, model_options(spec));
  }
  // Compile every batch shape before timing: a shape seen first under load
  // compiles on the serving worker and mixes compile stalls into the tail.
  for (const std::vector<int>& entries : batch_shapes(spec)) {
    for (int m = 0; m < kModels; ++m) {
      Span span("warm_batch", "serve");
      run_batch(*st->warm_host, st->names[m], *st, entries);
    }
  }
  // An untimed burst through the timed host warms its workers and pools.
  {
    Span span("warm_burst", "serve");
    Rng rng(cfg.seed ^ 0x77u);
    std::deque<std::future<InferenceResult>> inflight;
    for (int i = 0; i < spec.warm_requests; ++i) {
      if (static_cast<int>(inflight.size()) >= spec.window) {
        inflight.front().get();
        inflight.pop_front();
      }
      const int m = static_cast<int>(rng.uniform_int(kModels));
      const int e = static_cast<int>(rng.uniform_int(st->pool.size()));
      std::future<InferenceResult> f;
      if (st->host->try_submit(st->names[m], st->pool[e], Priority::Normal, &f) !=
          Admission::Accepted) {
        throw Error("warm-up submission refused");
      }
      inflight.push_back(std::move(f));
    }
    for (auto& f : inflight) f.get();
  }
  st->seconds = now_s() - start_s;
  return st;
}

/// Counts of one timed phase, kept by the benchmark itself.
struct Books {
  std::uint64_t offered = 0, accepted = 0, shed = 0, rejected = 0;
  std::uint64_t completed = 0, failed = 0, mismatched = 0;
};

/// Every response must equal the first response to the same request, and
/// that one must equal the request run alone (checked after the phases).
class ResponseCheck {
 public:
  ResponseCheck(int models, int pool) : first_(static_cast<std::size_t>(models * pool)), pool_(pool) {}
  bool record(int m, int e, const Tensor& out) {
    Tensor& first = first_[static_cast<std::size_t>(m * pool_ + e)];
    if (!first.defined()) {
      first = out;
      return true;
    }
    return first.rows() == out.rows() && first.cols() == out.cols() &&
           std::memcmp(first.data(), out.data(), out.bytes()) == 0;
  }
  const Tensor& first(int m, int e) const {
    return first_[static_cast<std::size_t>(m * pool_ + e)];
  }

 private:
  std::vector<Tensor> first_;
  int pool_;
};

void admit(Admission a, Books& b) {
  ++b.offered;
  if (a == Admission::Accepted) ++b.accepted;
  if (a == Admission::Shed) ++b.shed;
  if (a == Admission::Rejected || a == Admission::Closed) ++b.rejected;
}

/// Resolves one future into the books; returns false when it failed.
bool settle(std::future<InferenceResult>& f, int m, int e, ResponseCheck& chk,
            Books& b, InferenceResult* out) {
  try {
    *out = f.get();
  } catch (const std::exception&) {
    ++b.failed;
    return false;
  }
  ++b.completed;
  if (!chk.record(m, e, out->output)) {
    ++b.mismatched;
    return false;
  }
  return true;
}

struct Arrival {
  int model = 0, entry = 0;
  double due = 0;  ///< seconds after phase start
};

struct OpenLoop {
  std::vector<double> latency_ms, queue_ms, exec_ms, submit_us, lag_ms;
};

OpenLoop open_loop(const Config& cfg, const ServeSpec& spec, Setup& st,
                   double seconds, ResponseCheck& chk, Books& books) {
  // The whole arrival schedule, precomputed from the seed.
  Rng rng(cfg.seed ^ 0x0be5u);
  std::vector<Arrival> sched;
  const auto n = static_cast<std::size_t>(std::llround(spec.rate_rps * seconds));
  double at = 0;
  for (std::size_t i = 0; i < n; ++i) {
    at += -std::log(1.0 - rng.uniform()) / spec.rate_rps;
    sched.push_back({static_cast<int>(rng.uniform_int(kModels)),
                     static_cast<int>(rng.uniform_int(st.pool.size())), at});
  }

  struct Sent {
    std::future<InferenceResult> fut;
    double submit_start = 0;  ///< absolute, now_s()
    bool accepted = false;
  };
  std::vector<Sent> sent(n);
  std::mutex mu;
  std::condition_variable cv;
  std::size_t published = 0;  // guarded by mu

  OpenLoop out;
  out.latency_ms.reserve(n);
  const double t0 = now_s() + 0.002;
  std::thread collector([&] {
    for (std::size_t i = 0; i < n; ++i) {
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return published > i; });
      }
      if (!sent[i].accepted) continue;
      InferenceResult res;
      const Arrival& a = sched[i];
      if (!settle(sent[i].fut, a.model, a.entry, chk, books, &res)) continue;
      const double due = t0 + a.due;
      const double done = sent[i].submit_start + res.latency_seconds;
      out.latency_ms.push_back((done - due) * 1e3);
      out.queue_ms.push_back((res.latency_seconds - res.batch_seconds) * 1e3);
      out.exec_ms.push_back(res.batch_seconds * 1e3);
      if (tracing() && i < kTracedRequests) {
        trace_async("request", "serve", i, due, done);
        trace_async("exec", "serve", i, done - res.batch_seconds, done);
      }
    }
  });

  for (std::size_t i = 0; i < n; ++i) {
    const Arrival& a = sched[i];
    const double due = t0 + a.due;
    sleep_until_s(due);
    Sent& s = sent[i];
    s.submit_start = now_s();
    const Admission adm = st.host->try_submit(st.names[a.model], st.pool[a.entry],
                                              Priority::Normal, &s.fut);
    const double submit_end = now_s();
    admit(adm, books);
    s.accepted = adm == Admission::Accepted;
    out.submit_us.push_back((submit_end - s.submit_start) * 1e6);
    out.lag_ms.push_back((s.submit_start - due) * 1e3);
    if (tracing() && i < kTracedRequests) {
      trace_complete("submit", "serve", s.submit_start, submit_end);
    }
    {
      std::lock_guard<std::mutex> lock(mu);
      published = i + 1;
    }
    cv.notify_one();
  }
  collector.join();
  return out;
}

struct ClosedLoop {
  std::vector<double> exec_ms;
  std::vector<double> done_s;  ///< completion times, in order
  double seconds = 0;
};

ClosedLoop closed_window(const Config& cfg, const ServeSpec& spec, Setup& st,
                         double seconds, ResponseCheck& chk, Books& books) {
  Rng rng(cfg.seed ^ 0xc105u);
  struct Outstanding {
    std::future<InferenceResult> fut;
    int model, entry;
  };
  std::deque<Outstanding> inflight;
  ClosedLoop out;
  const double t0 = now_s();
  double last_done = t0;
  auto submit = [&] {
    Outstanding o;
    o.model = static_cast<int>(rng.uniform_int(kModels));
    o.entry = static_cast<int>(rng.uniform_int(st.pool.size()));
    const Admission adm = st.host->try_submit(st.names[o.model], st.pool[o.entry],
                                              Priority::Normal, &o.fut);
    admit(adm, books);
    if (adm == Admission::Accepted) inflight.push_back(std::move(o));
  };
  for (int i = 0; i < spec.window; ++i) submit();
  while (!inflight.empty()) {
    Outstanding o = std::move(inflight.front());
    inflight.pop_front();
    InferenceResult res;
    if (settle(o.fut, o.model, o.entry, chk, books, &res)) {
      out.exec_ms.push_back(res.batch_seconds * 1e3);
    }
    last_done = now_s();
    out.done_s.push_back(last_done);
    if (last_done - t0 < seconds) submit();
  }
  out.seconds = last_done - t0;
  return out;
}

/// The host's books once every accepted request has resolved. Workers update
/// them just after fulfilling a promise, so a snapshot taken the moment the
/// last future resolves can lag by a batch.
ServerStats settled_stats(const ServingHost& h) {
  ServerStats s = h.stats().total;
  for (int i = 0; i < 10000 && s.completed + s.failed < s.submitted; ++i) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
    s = h.stats().total;
  }
  return s;
}

}  // namespace

Result run_serve(const Config& cfg) {
  const ServeSpec spec = spec_for(cfg);
  Result r;
  if (!set_global_pool_threads(static_cast<unsigned>(spec.pool_threads))) {
    throw Error("the thread pool was started before the serving workload");
  }

  // --- set-up, repeated with fresh weights (so plans compile every time) ---
  std::unique_ptr<Setup> st;
  std::vector<double> setup_s, synth_ms;
  const unsigned base_seed = static_cast<unsigned>(cfg.seed * 2654435761u + 101u);
  for (int rep = 0; rep < kSetupReps; ++rep) {
    st.reset();
    st = set_up(cfg, spec, base_seed + static_cast<unsigned>(rep),
                rep == 0 ? 0.0 : now_s());
    setup_s.push_back(st->seconds);
    synth_ms.push_back(st->synth_s * 1e3);
  }

  // --- timed phases ----------------------------------------------------------
  ResponseCheck chk(kModels, static_cast<int>(st->pool.size()));
  Books open_books, closed_books;
  const std::size_t misses0 = PlanCache::global().misses();
  const ServerStats s0 = settled_stats(*st->host);
  const Usage u0 = usage_now();
  const OpenLoop ol = open_loop(cfg, spec, *st, cfg.seconds / 2, chk, open_books);
  const ServerStats s1 = settled_stats(*st->host);
  const ClosedLoop cl = closed_window(cfg, spec, *st, cfg.seconds / 2, chk, closed_books);
  const ServerStats s2 = settled_stats(*st->host);
  const Usage u1 = usage_now();
  const double rss_mib = peak_rss_mib();
  const std::size_t plan_misses = PlanCache::global().misses() - misses0;

  // --- checks ------------------------------------------------------------------
  Books all = open_books;
  for (auto [a, b] : {std::pair{&all.offered, closed_books.offered},
                      {&all.accepted, closed_books.accepted},
                      {&all.shed, closed_books.shed},
                      {&all.rejected, closed_books.rejected},
                      {&all.completed, closed_books.completed},
                      {&all.failed, closed_books.failed},
                      {&all.mismatched, closed_books.mismatched}}) {
    *a += b;
  }
  r.attempted = all.offered;
  r.failed = all.offered - (all.completed - all.mismatched);
  if (r.failed > 0) r.correct = false;
  r.check(all.offered == all.accepted + all.shed + all.rejected,
          "offered != accepted + shed + rejected");
  r.check(all.accepted == all.completed + all.failed,
          "accepted != completed + failed");
  r.check(s2.submitted - s0.submitted == all.accepted &&
              s2.completed - s0.completed == all.completed &&
              s2.failed - s0.failed == all.failed &&
              s2.shed - s0.shed == all.shed &&
              s2.rejected - s0.rejected == all.rejected,
          "host ServerStats disagree with the benchmark's own counts");
  if (all.shed + all.rejected > 0) {
    r.errors.push_back(std::to_string(all.shed + all.rejected) + " requests refused");
  }
  if (all.mismatched > 0) {
    r.errors.push_back(std::to_string(all.mismatched) +
                       " responses differ from an earlier response to the same request");
  }

  // Solo runs: each pool request alone, against every response it got and
  // against the double-precision reference.
  std::vector<double> solo_ms;
  double worst_ref = 0;
  {
    Span span("check_solo", "check");
    const GcnConfig gcn = gcn_config(spec);
    const GatConfig gat = gat_config(spec);
    for (int m = 0; m < kModels; ++m) {
      const Params p = init_params(st->models[m].build_graph());
      for (int e = 0; e < static_cast<int>(st->pool.size()); ++e) {
        const InferenceResult solo =
            run_batch(*st->warm_host, st->names[m], *st, {e}).front();
        solo_ms.push_back(solo.batch_seconds * 1e3);
        const Tensor& first = chk.first(m, e);
        if (first.defined() &&
            (first.rows() != solo.output.rows() ||
             std::memcmp(first.data(), solo.output.data(), first.bytes()) != 0)) {
          r.fail("model " + st->names[m] + " request " + std::to_string(e) +
                 ": served response differs from the request run alone");
        }
        const InferenceRequest& q = st->pool[e];
        const Mat x = to_mat(q.features);
        const Mat ref = m == 0 ? gcn_forward(*q.graph, x, p, gcn)
                               : gat_forward(*q.graph, x, p, gat);
        worst_ref = std::max(worst_ref, rel_error(solo.output, ref));
      }
    }
  }
  r.check(worst_ref <= kRefTol, "solo outputs differ from the reference: rel error " +
                                    std::to_string(worst_ref));
  std::fprintf(stderr,
               "check: %llu offered, %llu completed, %llu refused, %llu failed, "
               "%llu mismatched; solo vs reference rel err %.2e (tol %.0e)\n",
               static_cast<unsigned long long>(all.offered),
               static_cast<unsigned long long>(all.completed),
               static_cast<unsigned long long>(all.shed + all.rejected),
               static_cast<unsigned long long>(all.failed),
               static_cast<unsigned long long>(all.mismatched), worst_ref, kRefTol);

  const std::size_t chunk = std::min(kTailChunk, ol.latency_ms.size());
  const double tail = tail_percentile(chunk);
  std::vector<double> chunk_rps;
  const std::size_t cap_chunk = std::min(kRateChunk, cl.done_s.size() - 1);
  for (std::size_t i = cap_chunk; cap_chunk > 0 && i < cl.done_s.size(); i += cap_chunk) {
    chunk_rps.push_back(static_cast<double>(cap_chunk) /
                        (cl.done_s[i] - cl.done_s[i - cap_chunk]));
  }
  std::fprintf(stderr,
               "open loop: %zu requests at %.0f/s, tail = p%g of each %zu; latency ms "
               "p50/p90/p99 %.3f/%.3f/%.3f; generator lag ms p50/p99/max "
               "%.3f/%.3f/%.3f\n",
               ol.latency_ms.size(), spec.rate_rps, tail, chunk,
               percentile(ol.latency_ms, 50), percentile(ol.latency_ms, 90),
               percentile(ol.latency_ms, 99), percentile(ol.lag_ms, 50),
               percentile(ol.lag_ms, 99), percentile(ol.lag_ms, 100));
  r.add_e2e("setup_s", median(setup_s), "s");
  r.add_e2e("step_ms", median(cl.exec_ms), "ms");
  r.add_e2e("peak_rss_mb", rss_mib, "MiB");
  r.add_e2e("capacity_rps", median(chunk_rps), "1/s");

  if (!cfg.trace) return r;

  // --- traced run: per-layer probes --------------------------------------------
  // Compile cost of every warmed shape, through fresh models (the served
  // ones are cached), summed over shapes and models.
  std::map<std::string, double> pass_ms;
  double compile_ms = 0, nodes_after = 0;
  for (int m = 0; m < kModels; ++m) {
    const api::Model fresh = make_model(m, spec, base_seed + 1000u);
    bool first_shape = true;
    for (const std::vector<int>& entries : batch_shapes(spec)) {
      std::vector<const InferenceRequest*> reqs;
      for (int e : entries) reqs.push_back(&st->pool[e]);
      const serve::CollatedBatch cb = serve::collate(reqs);
      const double t = now_s();
      const auto c = fresh.compiled(*cb.graph, /*training=*/false);
      if (tracing()) trace_complete("compile", "ir", t, now_s());
      compile_ms += c->stats.total_seconds() * 1e3;
      for (const PassInfo& p : c->stats.passes) pass_ms[p.name] += p.seconds * 1e3;
      pass_ms["plan"] += c->stats.plan_seconds * 1e3;
      if (first_shape) nodes_after += static_cast<double>(c->ir.size());
      first_shape = false;
    }
  }
  std::vector<const InferenceRequest*> full;
  for (int i = 0; i < spec.max_batch; ++i) full.push_back(&st->pool[i]);
  std::vector<double> collate_ms;
  for (int i = 0; i < 20; ++i) {
    const double t = now_s();
    serve::collate(full);
    const double te = now_s();
    if (tracing()) trace_complete("collate", "serve", t, te);
    collate_ms.push_back((te - t) * 1e3);
  }

  const ServerStats closed = [&] {
    ServerStats d;
    d.completed = s2.completed - s1.completed;
    d.batches = s2.batches - s1.batches;
    d.busy_seconds = s2.busy_seconds - s1.busy_seconds;
    d.counters = s2.counters - s1.counters;
    return d;
  }();
  const double batches = static_cast<double>(std::max<std::uint64_t>(1, closed.batches));
  const PerfCounters& c = closed.counters;
  const double edges = static_cast<double>(c.specialized_fwd_edges + c.interpreted_fwd_edges);
  const double ops = static_cast<double>(std::max<std::uint64_t>(1, all.offered));
  double pool_peak = 0;
  for (const auto& [name, s] : st->host->stats().models) {
    pool_peak += static_cast<double>(s.pool_peak_bytes);
  }

  r.add_layer("graph.synth_ms", median(synth_ms), "ms");
  r.add_layer("ir.compile_ms", compile_ms, "ms");
  for (const auto& [name, v] : pass_ms) {
    for (const char* k : {"reorg", "autodiff", "optimize", "recompute", "fusion",
                          "plan"}) {
      if (name == k) r.add_layer(std::string("ir.pass.") + k + "_ms", v, "ms");
    }
  }
  r.add_layer("ir.nodes_after", nodes_after, "count");
  r.add_layer("engine.forward_ms", median(solo_ms), "ms");
  r.add_layer("engine.kernel_launches", static_cast<double>(c.kernel_launches) / batches,
              "count");
  r.add_layer("engine.io_mb", static_cast<double>(c.io_bytes()) / (1 << 20) / batches,
              "MiB");
  r.add_layer("engine.gflop", static_cast<double>(c.flops) * 1e-9 / batches, "GFLOP");
  r.add_layer("engine.core_edge_frac_fwd",
              edges > 0 ? static_cast<double>(c.specialized_fwd_edges) / edges : 0.0,
              "ratio");
  r.add_layer("proc.user_ms_per_op", (u1.user_s - u0.user_s) * 1e3 / ops, "ms");
  r.add_layer("proc.sys_ms_per_op", (u1.sys_s - u0.sys_s) * 1e3 / ops, "ms");
  r.add_layer("proc.minflt_per_op", (u1.minflt - u0.minflt) / ops, "count");
  r.add_layer("serve.req_p50_ms", median(ol.latency_ms), "ms");
  r.add_layer("serve.req_tail_ms", chunk_median(ol.latency_ms, chunk, tail), "ms");
  r.add_layer("serve.queue_ms", median(ol.queue_ms), "ms");
  r.add_layer("serve.exec_ms", median(ol.exec_ms), "ms");
  r.add_layer("serve.submit_us", median(ol.submit_us), "us");
  r.add_layer("serve.collate_ms", median(collate_ms), "ms");
  r.add_layer("serve.batch_mean", static_cast<double>(closed.completed) / batches, "count");
  r.add_layer("serve.busy_frac",
              closed.busy_seconds / (std::max(cl.seconds, 1e-9) * spec.workers), "ratio");
  r.add_layer("serve.plan_misses", static_cast<double>(plan_misses), "count");
  r.add_layer("serve.gen_lag_ms", percentile(ol.lag_ms, 99), "ms");
  r.add_layer("serve.pool_peak_mb", pool_peak / (1 << 20), "MiB");
  return r;
}

}  // namespace perfbench
