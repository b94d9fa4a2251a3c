// Independent double-precision reference for the benchmarked models.
//
// A straightforward per-edge implementation of the GAT and GCN forward
// passes as the stock modules define them (api/models.cc), written against
// the graph's edge list and nothing else of the engine: no IR, no fusion, no
// kernel cores. The program's float32 outputs are checked against it within
// a stated tolerance, and its loss drives the finite-difference check of the
// program's gradient step.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "api/triad.h"

namespace perfbench {

/// Dense row-major double matrix.
struct Mat {
  std::int64_t rows = 0, cols = 0;
  std::vector<double> a;

  Mat() = default;
  Mat(std::int64_t r, std::int64_t c) : rows(r), cols(c), a(r * c, 0.0) {}
  double& at(std::int64_t r, std::int64_t c) { return a[r * cols + c]; }
  double at(std::int64_t r, std::int64_t c) const { return a[r * cols + c]; }
};

Mat to_mat(const triad::Tensor& t);

/// Parameters by name, in the order of Compiled::params.
struct Params {
  std::vector<std::string> names;
  std::vector<Mat> values;

  /// The parameter whose name ends in `suffix` (e.g. "layer0.W"); throws when
  /// there is none.
  const Mat& get(const std::string& suffix) const;
};

/// Initial parameters of a compiled model or of a freshly built one.
Params init_params(const triad::Compiled& c);
Params init_params(const triad::ModelGraph& m);
/// Current parameter values bound in a trainer's runner.
Params current_params(triad::Trainer& t);

Mat gat_forward(const triad::Graph& g, const Mat& x, const Params& p,
                const triad::GatConfig& cfg);
Mat gcn_forward(const triad::Graph& g, const Mat& x, const Params& p,
                const triad::GcnConfig& cfg);

/// Mean softmax cross-entropy over all rows, as the Trainer's loss.
double softmax_ce(const Mat& logits, const triad::IntTensor& labels);

/// Largest |program - reference| scaled by max(1, |reference|), the error
/// measure every tolerance in the benchmark is stated in.
double rel_error(const triad::Tensor& program, const Mat& reference);

}  // namespace perfbench
