// Training workloads: full-batch 2-layer GAT training under the default
// strategy, unsharded on synthetic Pubmed (vertex-heavy: dense matmul and
// per-step allocation dominate) and 4-way sharded on the power-law
// Reddit-like graph (edge-heavy: backward edge programs, the sharded runner
// and boundary combines dominate).
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>

#include "api/triad.h"
#include "graph/partition.h"
#include "reference.h"
#include "support/parallel.h"
#include "tensor/ops.h"
#include "util.h"

namespace perfbench {

namespace {

using namespace triad;

struct TrainSpec {
  std::string dataset;
  double scale = 1;
  double feat_scale = 0.25;
  int shards = 0;
};

TrainSpec spec_for(const Config& cfg) {
  if (cfg.workload == "train-gat-pubmed") {
    return {"pubmed", cfg.smoke ? 0.05 : 1.0, 0.25, 0};
  }
  return {"reddit", cfg.smoke ? 0.0005 : 0.0015, 0.25, 4};
}

// One pool thread. On a shared 4-vCPU host, steps run on 4 threads moved by
// ±20% from run to run with the hypervisor's steal time; on one thread they
// repeat within ~2%. The sharded runner still walks and combines all K shards.
constexpr unsigned kPoolThreads = 1;
constexpr int kSetupReps = 3;      // set-ups per run; setup_s is their median
constexpr int kWarmSteps = 2;      // untimed steps per set-up
constexpr int kMinTimedSteps = 40; // floor on the steps behind each median
constexpr float kLr = 0.05f;
constexpr int kFdDirections = 3;
constexpr double kFdEps = 1e-3;
constexpr int kLayerReps = 5;      // repetitions of each traced layer probe
// Tolerances, in rel_error() units (|program - reference| / max(1, |ref|)).
// float32 sums over in-degrees in the thousands (the Reddit-like graph) reach
// ~5e-5; a wrong kernel is off by O(1).
constexpr double kLogitTol = 1e-3;
constexpr double kLossTol = 1e-4;
// |g·d (program) - g·d (finite difference)| / ||g||, per direction. Correct
// steps measure up to ~3e-6; a 5% error in the ELU gradient reads 7e-5-2e-4.
constexpr double kGradTol = 3e-5;

GatConfig gat_config(const Dataset& data) {
  GatConfig c;
  c.in_dim = data.features.cols();
  c.hidden = 128;
  c.heads = 1;
  c.layers = 2;
  c.num_classes = data.num_classes;
  return c;
}

/// One set-up: inputs, compiled model and a warmed trainer, plus what the
/// checks need from the first step. Heap-held and never moved: the trainer
/// keeps a reference to `data.graph`.
struct Setup {
  explicit Setup(Dataset d) : data(std::move(d)) {}

  Dataset data;
  std::unique_ptr<api::Model> model;
  std::shared_ptr<const Compiled> compiled;
  std::unique_ptr<Trainer> trainer;
  Tensor first_logits;  ///< logits of step 1, i.e. of the initial weights
  float first_loss = 0;
  Params after_first;   ///< weights after step 1
  double synth_s = 0, seconds = 0;
};

api::Model make_model(const Dataset& data, int shards, unsigned init_seed) {
  api::CompileOptions opts;
  opts.shards = shards;
  opts.init_seed = init_seed;
  return api::Engine(opts).compile(std::make_shared<api::Gat>(gat_config(data)));
}

unsigned init_seed_of(const Config& cfg) {
  return static_cast<unsigned>(cfg.seed * 2654435761u + 17u);
}

std::unique_ptr<Setup> set_up(const Config& cfg, const TrainSpec& spec,
                              double start_s) {
  double t = now_s();
  std::unique_ptr<Setup> s;
  {
    Span span("synth", "graph");
    Rng rng(cfg.seed);
    s = std::make_unique<Setup>(
        make_dataset(spec.dataset, rng, spec.scale, spec.feat_scale));
  }
  s->synth_s = now_s() - t;

  t = now_s();
  s->model = std::make_unique<api::Model>(
      make_model(s->data, spec.shards, init_seed_of(cfg)));
  s->compiled = s->model->compiled(s->data.graph, /*training=*/true);
  const double compile_end = now_s();
  if (tracing()) {
    trace_complete("compile", "ir", t, compile_end);
    // The per-pass report as child spans, laid end to end from the start.
    double at = t;
    for (const PassInfo& p : s->compiled->stats.passes) {
      trace_complete(p.name, "ir.pass", at, at + p.seconds);
      at += p.seconds;
    }
    trace_complete("plan", "ir.pass", at, at + s->compiled->stats.plan_seconds);
  }

  {
    Span span("bind", "engine");
    s->trainer.reset(new Trainer(s->model->trainer(s->data)));
  }
  for (int i = 0; i < kWarmSteps; ++i) {
    Span span("warm_step", "engine");
    const StepMetrics m = s->trainer->train_step(s->data.labels, kLr);
    if (i == 0) {
      s->first_loss = m.loss;
      s->first_logits = s->trainer->logits().clone(MemTag::kActivations);
      s->after_first = current_params(*s->trainer);
    }
  }
  s->seconds = now_s() - start_s;
  return s;
}

/// Checks the first step against the double-precision reference: logits and
/// loss at the initial weights, and the update direction against a central
/// finite difference of the reference loss.
void check_first_step(const Config& cfg, const Setup& s, Result& r) {
  const GatConfig gcfg = gat_config(s.data);
  const Params init = init_params(*s.compiled);
  const Mat x = to_mat(s.data.features);
  const Mat logits = gat_forward(s.data.graph, x, init, gcfg);
  const double logit_err = rel_error(s.first_logits, logits);
  r.check(logit_err <= kLogitTol,
          "first logits differ from the reference: rel error " +
              std::to_string(logit_err));
  const double loss = softmax_ce(logits, s.data.labels);
  r.check(std::abs(loss - s.first_loss) <= kLossTol * std::max(1.0, std::abs(loss)),
          "first loss " + std::to_string(s.first_loss) + " vs reference " +
              std::to_string(loss));

  // g = (θ0 - θ1) / lr, the gradient the program applied.
  std::vector<double> g;
  for (std::size_t i = 0; i < init.values.size(); ++i) {
    const Mat& before = init.values[i];
    const Mat& after = s.after_first.values[i];
    for (std::size_t j = 0; j < before.a.size(); ++j) {
      g.push_back((before.a[j] - after.a[j]) / static_cast<double>(kLr));
    }
  }
  double gnorm = 0;
  for (double v : g) gnorm += v * v;
  gnorm = std::sqrt(gnorm);
  r.check(std::isfinite(gnorm) && gnorm > 0, "first step changed no weight");

  Rng rng(cfg.seed ^ 0xfdu);
  double worst = 0;
  for (int dir = 0; dir < kFdDirections; ++dir) {
    std::vector<double> d(g.size());
    double norm = 0;
    for (double& v : d) {
      v = rng.normal();
      norm += v * v;
    }
    norm = std::sqrt(norm);
    double gd = 0;
    for (std::size_t j = 0; j < d.size(); ++j) {
      d[j] /= norm;
      gd += g[j] * d[j];
    }
    auto loss_at = [&](double sign) {
      Params p = init;
      std::size_t k = 0;
      for (Mat& m : p.values) {
        for (double& v : m.a) v += sign * kFdEps * d[k++];
      }
      return softmax_ce(gat_forward(s.data.graph, x, p, gcfg), s.data.labels);
    };
    const double fd = (loss_at(+1) - loss_at(-1)) / (2 * kFdEps);
    worst = std::max(worst, std::abs(gd - fd) / gnorm);
  }
  r.check(worst <= kGradTol, "gradient step disagrees with the finite "
                             "difference: error " + std::to_string(worst));
  std::fprintf(stderr,
               "check: logits rel err %.2e (tol %.0e), loss %.6f vs %.6f, "
               "gradient err %.2e (tol %.0e, |g| %.3g)\n",
               logit_err, kLogitTol, s.first_loss, loss, worst, kGradTol, gnorm);
}

template <typename F>
double median_ms(int reps, F&& fn) {
  std::vector<double> ms;
  for (int i = 0; i < reps; ++i) {
    const double t = now_s();
    fn();
    ms.push_back((now_s() - t) * 1e3);
  }
  return median(ms);
}

std::string pass_key(const std::string& name) {
  for (const char* k : {"reorg", "autodiff", "optimize", "recompute", "fusion",
                        "partition"}) {
    if (name.rfind(k, 0) == 0) return k;
  }
  return "";
}

}  // namespace

Result run_train(const Config& cfg) {
  const TrainSpec spec = spec_for(cfg);
  Result r;
  if (!set_global_pool_threads(kPoolThreads)) {
    throw Error("the thread pool was started before the training workload");
  }

  // --- set-up, repeated; the last one is kept and timed -------------------
  std::unique_ptr<Setup> s;
  std::vector<double> setup_s, synth_ms, compile_ms;
  std::map<std::string, std::vector<double>> pass_ms;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    s.reset();  // one set-up alive at a time
    s = set_up(cfg, spec, rep == 0 ? 0.0 : now_s());
    setup_s.push_back(s->seconds);
    synth_ms.push_back(s->synth_s * 1e3);
    compile_ms.push_back(s->compiled->stats.total_seconds() * 1e3);
    std::map<std::string, double> per_pass;
    for (const PassInfo& p : s->compiled->stats.passes) {
      per_pass[pass_key(p.name)] += p.seconds * 1e3;
    }
    per_pass["plan"] += s->compiled->stats.plan_seconds * 1e3;
    for (const char* k : {"reorg", "autodiff", "optimize", "recompute",
                          "fusion", "partition", "plan"}) {
      pass_ms[k].push_back(per_pass[k]);
    }
  }
  Trainer& trainer = *s->trainer;

  // --- timed window --------------------------------------------------------
  std::vector<double> step_ms, losses, pool_peak, launches, io_mb, gflop,
      frac_fwd, frac_bwd;
  const Usage u0 = usage_now();
  const double t0 = now_s();
  while (now_s() - t0 < cfg.seconds ||
         static_cast<int>(step_ms.size()) < kMinTimedSteps) {
    ++r.attempted;
    const double ts = now_s();
    StepMetrics m;
    try {
      m = trainer.train_step(s->data.labels, kLr);
    } catch (const std::exception& e) {
      r.fail(std::string("train_step threw: ") + e.what());
      break;
    }
    const double te = now_s();
    if (tracing()) trace_complete("step", "engine", ts, te);
    step_ms.push_back((te - ts) * 1e3);
    losses.push_back(m.loss);
    pool_peak.push_back(static_cast<double>(m.peak_bytes) / (1 << 20));
    const PerfCounters& c = m.counters;
    launches.push_back(static_cast<double>(c.kernel_launches));
    io_mb.push_back(static_cast<double>(c.io_bytes()) / (1 << 20));
    gflop.push_back(static_cast<double>(c.flops) * 1e-9);
    auto frac = [](std::uint64_t spec_e, std::uint64_t interp_e) {
      const double all = static_cast<double>(spec_e + interp_e);
      return all > 0 ? static_cast<double>(spec_e) / all : 0.0;
    };
    frac_fwd.push_back(frac(c.specialized_fwd_edges, c.interpreted_fwd_edges));
    frac_bwd.push_back(frac(c.specialized_bwd_edges, c.interpreted_bwd_edges));
  }
  const double window_s = now_s() - t0;
  const Usage u1 = usage_now();
  const double rss_mib = peak_rss_mib();
  const double ops = static_cast<double>(std::max<std::size_t>(1, step_ms.size()));

  // --- checks (outside the timed window) -----------------------------------
  bool finite = !losses.empty();
  for (double l : losses) finite = finite && std::isfinite(l);
  r.check(finite, "non-finite training loss");
  r.check(finite && losses.back() < losses.front(),
          "loss did not decrease over the timed steps: " +
              (losses.empty() ? std::string("no steps")
                              : std::to_string(losses.front()) + " -> " +
                                    std::to_string(losses.back())));
  {
    Span span("check_reference", "check");
    check_first_step(cfg, *s, r);
  }

  // The sharded trainer's first logits against an unsharded trainer with the
  // same weights; in a traced run the same trainer prices the sharding.
  double unsharded_step_ms = 0;
  if (spec.shards > 0) {
    Span span("check_unsharded", "check");
    const api::Model flat = make_model(s->data, 0, init_seed_of(cfg));
    Trainer ref(flat.trainer(s->data));
    ref.forward(s->data.labels);
    const Tensor& a = ref.logits();
    const Tensor& b = s->first_logits;
    const bool same = a.rows() == b.rows() && a.cols() == b.cols() &&
                      std::memcmp(a.data(), b.data(), a.bytes()) == 0;
    r.check(same, "K=" + std::to_string(spec.shards) +
                      " logits are not bit-identical to the unsharded trainer's");
    if (cfg.trace) {
      ref.train_step(s->data.labels, kLr);  // warm
      unsharded_step_ms = median_ms(kLayerReps, [&] {
        Span step("unsharded_step", "engine");
        ref.train_step(s->data.labels, kLr);
      });
    }
  }

  const double step_med = median(step_ms);
  r.add_e2e("setup_s", median(setup_s), "s");
  r.add_e2e("step_ms", step_med, "ms");
  r.add_e2e("peak_rss_mb", rss_mib, "MiB");
  r.add_e2e("capacity_rps", static_cast<double>(step_ms.size()) / window_s, "1/s");

  if (!cfg.trace) return r;

  // --- traced run: per-layer probes ------------------------------------------
  double forward_ms = median_ms(kLayerReps, [&] {
    Span span("forward", "engine");
    trainer.forward(s->data.labels);
  });
  double partition_ms = 0;
  if (spec.shards > 0) {
    partition_ms = median_ms(kLayerReps, [&] {
      Span span("partition", "graph");
      Partitioning::build(s->data.graph, spec.shards,
                          PartitionStrategy::DegreeBalanced);
    });
  }
  // ops::matmul at the first layer's shapes: X·W and Xᵀ·dY.
  const Tensor& x = s->data.features;
  const std::int64_t hidden = gat_config(s->data).hidden;
  Rng rng(cfg.seed ^ 0x3au);
  const Tensor w = Tensor::randn(x.cols(), hidden, rng);
  const Tensor dy = Tensor::randn(x.rows(), hidden, rng);
  Tensor y(x.rows(), hidden), wgrad(x.cols(), hidden);
  const double mm_fwd = median_ms(kLayerReps, [&] {
    Span span("matmul_fwd", "tensor");
    ops::matmul(x, w, y);
  });
  const double mm_wgrad = median_ms(kLayerReps, [&] {
    Span span("matmul_wgrad", "tensor");
    ops::matmul(x, dy, wgrad, /*trans_a=*/true);
  });

  r.add_layer("graph.synth_ms", median(synth_ms), "ms");
  r.add_layer("graph.partition_ms", partition_ms, "ms");
  r.add_layer("ir.compile_ms", median(compile_ms), "ms");
  for (const auto& [name, v] : pass_ms) {
    r.add_layer("ir.pass." + name + "_ms", median(v), "ms");
  }
  r.add_layer("ir.nodes_after", static_cast<double>(s->compiled->ir.size()), "count");
  r.add_layer("engine.forward_ms", forward_ms, "ms");
  r.add_layer("engine.backward_update_ms", step_med - forward_ms, "ms");
  r.add_layer("engine.kernel_launches", median(launches), "count");
  r.add_layer("engine.io_mb", median(io_mb), "MiB");
  r.add_layer("engine.gflop", median(gflop), "GFLOP");
  r.add_layer("engine.core_edge_frac_fwd", median(frac_fwd), "ratio");
  r.add_layer("engine.core_edge_frac_bwd", median(frac_bwd), "ratio");
  r.add_layer("engine.shard_net_ms",
              spec.shards > 0 ? step_med - unsharded_step_ms : 0.0, "ms");
  r.add_layer("engine.plan_peak_mb",
              static_cast<double>(s->compiled->plan->estimated_peak_bytes()) / (1 << 20),
              "MiB");
  r.add_layer("tensor.pool_peak_mb", median(pool_peak), "MiB");
  r.add_layer("tensor.matmul_fwd_ms", mm_fwd, "ms");
  r.add_layer("tensor.matmul_wgrad_ms", mm_wgrad, "ms");
  r.add_layer("proc.user_ms_per_op", (u1.user_s - u0.user_s) * 1e3 / ops, "ms");
  r.add_layer("proc.sys_ms_per_op", (u1.sys_s - u0.sys_s) * 1e3 / ops, "ms");
  r.add_layer("proc.minflt_per_op", (u1.minflt - u0.minflt) / ops, "count");
  return r;
}

}  // namespace perfbench
