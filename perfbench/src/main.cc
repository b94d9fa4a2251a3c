// perfbench: the repository benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <file>] [--smoke]
//
// Runs one workload and prints, as the last line of standard output, one JSON
// object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end set, with --trace 1 the per-layer set (and the
// spans go to --trace-out as Chrome trace-event JSON). Human-readable tables
// and check reports go to standard error. Exit code 0 only when every check
// passed.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "util.h"

namespace {

using perfbench::Metric;

// The metric sets BENCHMARK.json declares, in print order. Every run reports
// all of its set; a per-layer metric a workload does not exercise reads 0.
const Metric kEndToEnd[] = {
    {"setup_s", 0, "s"},
    {"step_ms", 0, "ms"},
    {"peak_rss_mb", 0, "MiB"},
    {"capacity_rps", 0, "1/s"},
};
const Metric kPerLayer[] = {
    {"graph.synth_ms", 0, "ms"},
    {"graph.partition_ms", 0, "ms"},
    {"ir.compile_ms", 0, "ms"},
    {"ir.pass.reorg_ms", 0, "ms"},
    {"ir.pass.autodiff_ms", 0, "ms"},
    {"ir.pass.optimize_ms", 0, "ms"},
    {"ir.pass.recompute_ms", 0, "ms"},
    {"ir.pass.fusion_ms", 0, "ms"},
    {"ir.pass.partition_ms", 0, "ms"},
    {"ir.pass.plan_ms", 0, "ms"},
    {"ir.nodes_after", 0, "count"},
    {"engine.forward_ms", 0, "ms"},
    {"engine.backward_update_ms", 0, "ms"},
    {"engine.kernel_launches", 0, "count"},
    {"engine.io_mb", 0, "MiB"},
    {"engine.gflop", 0, "GFLOP"},
    {"engine.core_edge_frac_fwd", 0, "ratio"},
    {"engine.core_edge_frac_bwd", 0, "ratio"},
    {"engine.shard_net_ms", 0, "ms"},
    {"engine.plan_peak_mb", 0, "MiB"},
    {"tensor.pool_peak_mb", 0, "MiB"},
    {"tensor.matmul_fwd_ms", 0, "ms"},
    {"tensor.matmul_wgrad_ms", 0, "ms"},
    {"proc.user_ms_per_op", 0, "ms"},
    {"proc.sys_ms_per_op", 0, "ms"},
    {"proc.minflt_per_op", 0, "count"},
    {"serve.req_p50_ms", 0, "ms"},
    {"serve.req_tail_ms", 0, "ms"},
    {"serve.queue_ms", 0, "ms"},
    {"serve.exec_ms", 0, "ms"},
    {"serve.submit_us", 0, "us"},
    {"serve.collate_ms", 0, "ms"},
    {"serve.batch_mean", 0, "count"},
    {"serve.busy_frac", 0, "ratio"},
    {"serve.plan_misses", 0, "count"},
    {"serve.gen_lag_ms", 0, "ms"},
    {"serve.pool_peak_mb", 0, "MiB"},
};

int usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "train-gat-pubmed|train-gat-reddit-k4|serve-gcn-gat-mix "
               "--seed N --seconds S --trace 0|1 [--trace-out FILE] [--smoke]\n",
               msg);
  return 2;
}

/// Orders `got` as `declared`, filling undeclared gaps with 0. Returns false
/// when the workload reported a metric that is not declared.
template <std::size_t N>
bool canonical(const Metric (&declared)[N], const std::vector<Metric>& got,
               bool fill_missing, std::vector<Metric>& out) {
  for (const Metric& m : got) {
    bool known = false;
    for (const Metric& d : declared) known = known || d.name == m.name;
    if (!known) {
      std::fprintf(stderr, "perfbench: undeclared metric %s\n", m.name.c_str());
      return false;
    }
  }
  for (const Metric& d : declared) {
    const Metric* found = nullptr;
    for (const Metric& m : got) {
      if (m.name == d.name) found = &m;
    }
    if (found == nullptr && !fill_missing) {
      std::fprintf(stderr, "perfbench: metric %s not reported\n", d.name.c_str());
      return false;
    }
    out.push_back({d.name, found ? found->value : 0.0, d.unit});
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Config cfg;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
    if (a == "--smoke") {
      cfg.smoke = true;
      continue;
    }
    if (v == nullptr) return usage(("missing value for " + a).c_str());
    ++i;
    if (a == "--workload") {
      cfg.workload = v;
    } else if (a == "--seed") {
      cfg.seed = std::strtoull(v, nullptr, 10);
      have_seed = true;
    } else if (a == "--seconds") {
      cfg.seconds = std::atof(v);
      have_seconds = cfg.seconds > 0;
    } else if (a == "--trace") {
      cfg.trace = std::string(v) == "1";
      have_trace = cfg.trace || std::string(v) == "0";
    } else if (a == "--trace-out") {
      cfg.trace_path = v;
    } else {
      return usage(("unknown argument " + a).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace) {
    return usage("--seed, --seconds (> 0) and --trace are required");
  }
  perfbench::set_tracing(cfg.trace);

  perfbench::Result r;
  try {
    if (cfg.workload == "train-gat-pubmed" ||
        cfg.workload == "train-gat-reddit-k4") {
      r = perfbench::run_train(cfg);
    } else if (cfg.workload == "serve-gcn-gat-mix") {
      r = perfbench::run_serve(cfg);
    } else {
      return usage(("unknown workload '" + cfg.workload + "'").c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s: %s\n", cfg.workload.c_str(), e.what());
    return 1;
  }

  std::vector<Metric> e2e, layers;
  if (!canonical(kEndToEnd, r.e2e, /*fill_missing=*/false, e2e) ||
      (cfg.trace && !canonical(kPerLayer, r.layers, /*fill_missing=*/true, layers))) {
    return 1;
  }
  const std::vector<Metric>& shown = cfg.trace ? layers : e2e;
  for (const Metric& m : shown) {
    r.check(std::isfinite(m.value), "metric " + m.name + " is not finite");
  }

  std::fprintf(stderr, "\n%s seed=%llu seconds=%g%s: attempted %llu, failed %llu\n",
               cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
               cfg.seconds, cfg.trace ? " (traced)" : "",
               static_cast<unsigned long long>(r.attempted),
               static_cast<unsigned long long>(r.failed));
  for (const Metric& m : e2e) {
    std::fprintf(stderr, "  %-28s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const Metric& m : layers) {
    std::fprintf(stderr, "  %-28s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const std::string& e : r.errors) std::fprintf(stderr, "FAILED: %s\n", e.c_str());

  if (cfg.trace && !cfg.trace_path.empty()) {
    if (!perfbench::write_trace(cfg.trace_path)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", cfg.trace_path.c_str());
      return 1;
    }
    std::fprintf(stderr, "trace: %s\n", cfg.trace_path.c_str());
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (std::size_t i = 0; i < shown.size(); ++i) {
    const double v = std::isfinite(shown[i].value) ? shown[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}", i ? ", " : "",
                shown[i].name.c_str(), v, shown[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return r.correct && r.attempted > 0 ? 0 : 1;
}
