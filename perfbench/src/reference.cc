#include "reference.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

using triad::Graph;

Mat to_mat(const triad::Tensor& t) {
  Mat m(t.rows(), t.cols());
  const float* p = t.data();
  for (std::int64_t i = 0; i < t.numel(); ++i) m.a[i] = p[i];
  return m;
}

const Mat& Params::get(const std::string& suffix) const {
  for (std::size_t i = 0; i < names.size(); ++i) {
    const std::string& n = names[i];
    if (n.size() >= suffix.size() &&
        n.compare(n.size() - suffix.size(), suffix.size(), suffix) == 0) {
      return values[i];
    }
  }
  throw triad::Error("reference: no parameter named *" + suffix);
}

namespace {

Params params_of(const triad::IrGraph& ir, const std::vector<int>& ids,
                 const std::vector<triad::Tensor>& values) {
  Params p;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    p.names.push_back(ir.node(ids[i]).name);
    p.values.push_back(to_mat(values[i]));
  }
  return p;
}

}  // namespace

Params init_params(const triad::Compiled& c) {
  return params_of(c.ir, c.params, c.init);
}

Params init_params(const triad::ModelGraph& m) {
  return params_of(m.ir, m.params, m.init);
}

Params current_params(triad::Trainer& t) {
  const triad::Compiled& c = t.model();
  Params p;
  for (int id : c.params) {
    p.names.push_back(c.ir.node(id).name);
    p.values.push_back(to_mat(t.runner().result(id)));
  }
  return p;
}

namespace {

Mat matmul(const Mat& x, const Mat& w) {
  Mat y(x.rows, w.cols);
  for (std::int64_t r = 0; r < x.rows; ++r) {
    double* yr = &y.a[r * y.cols];
    for (std::int64_t k = 0; k < x.cols; ++k) {
      const double xv = x.a[r * x.cols + k];
      if (xv == 0.0) continue;
      const double* wk = &w.a[k * w.cols];
      for (std::int64_t c = 0; c < w.cols; ++c) yr[c] += xv * wk[c];
    }
  }
  return y;
}

std::string layer(std::int64_t l, const char* what) {
  return "layer" + std::to_string(l) + "." + what;
}

}  // namespace

Mat gat_forward(const Graph& g, const Mat& x, const Params& p,
                const triad::GatConfig& cfg) {
  const auto& in_ptr = g.in_ptr();
  const auto& in_src = g.in_src();
  Mat h = x;
  for (std::int64_t l = 0; l < cfg.layers; ++l) {
    const bool last = l + 1 == cfg.layers;
    const std::int64_t heads = last && cfg.classify_last ? 1 : cfg.heads;
    const Mat& w = p.get(layer(l, "W"));
    const Mat& a = p.get(layer(l, "A"));
    const Mat& b = p.get(layer(l, "b"));
    const std::int64_t hf = w.cols;
    const std::int64_t f = hf / heads;
    const Mat ht = matmul(h, w);
    // Per-vertex halves of the attention projection aᵀ[h̃u ‖ h̃v].
    Mat su(g.num_vertices(), heads), sv(g.num_vertices(), heads);
    for (std::int64_t v = 0; v < g.num_vertices(); ++v) {
      for (std::int64_t k = 0; k < heads; ++k) {
        double u_part = 0, v_part = 0;
        for (std::int64_t i = 0; i < hf; ++i) {
          u_part += ht.at(v, i) * a.at(i, k);
          v_part += ht.at(v, i) * a.at(hf + i, k);
        }
        su.at(v, k) = u_part;
        sv.at(v, k) = v_part;
      }
    }
    Mat out(g.num_vertices(), hf);
    std::vector<double> score;
    for (std::int64_t v = 0; v < g.num_vertices(); ++v) {
      const std::int64_t lo = in_ptr[v], hi = in_ptr[v + 1];
      for (std::int64_t k = 0; k < heads; ++k) {
        score.assign(static_cast<std::size_t>(hi - lo), 0.0);
        double mx = -INFINITY;
        for (std::int64_t e = lo; e < hi; ++e) {
          const double s = su.at(in_src[e], k) + sv.at(v, k);
          const double lr = s > 0 ? s : cfg.negative_slope * s;
          score[e - lo] = lr;
          mx = std::max(mx, lr);
        }
        double den = 0;
        for (double& s : score) {
          s = std::exp(s - mx);
          den += s;
        }
        for (std::int64_t e = lo; e < hi; ++e) {
          const double att = score[e - lo] / den;
          const double* src = &ht.a[in_src[e] * hf + k * f];
          double* dst = &out.a[v * hf + k * f];
          for (std::int64_t j = 0; j < f; ++j) dst[j] += att * src[j];
        }
      }
      for (std::int64_t i = 0; i < hf; ++i) {
        double y = out.at(v, i) + b.at(0, i);
        if (!last) y = y > 0 ? y : std::expm1(y);  // ELU, alpha = 1
        out.at(v, i) = y;
      }
    }
    h = std::move(out);
  }
  return h;
}

Mat gcn_forward(const Graph& g, const Mat& x, const Params& p,
                const triad::GcnConfig& cfg) {
  const auto& in_ptr = g.in_ptr();
  const auto& in_src = g.in_src();
  Mat h = x;
  const std::size_t layers = cfg.hidden.size() + 1;
  for (std::size_t l = 0; l < layers; ++l) {
    const Mat proj =
        matmul(h, p.get(layer(static_cast<std::int64_t>(l), "W")));
    const Mat& b = p.get(layer(static_cast<std::int64_t>(l), "b"));
    Mat out(g.num_vertices(), proj.cols);
    for (std::int64_t v = 0; v < g.num_vertices(); ++v) {
      double* dst = &out.a[v * out.cols];
      for (std::int64_t e = in_ptr[v]; e < in_ptr[v + 1]; ++e) {
        const double* src = &proj.a[in_src[e] * proj.cols];
        for (std::int64_t j = 0; j < out.cols; ++j) dst[j] += src[j];
      }
      for (std::int64_t j = 0; j < out.cols; ++j) {
        dst[j] += b.at(0, j);
        if (l + 1 < layers) dst[j] = std::max(dst[j], 0.0);
      }
    }
    h = std::move(out);
  }
  return h;
}

double softmax_ce(const Mat& logits, const triad::IntTensor& labels) {
  double total = 0;
  for (std::int64_t r = 0; r < logits.rows; ++r) {
    double mx = -INFINITY;
    for (std::int64_t c = 0; c < logits.cols; ++c) mx = std::max(mx, logits.at(r, c));
    double den = 0;
    for (std::int64_t c = 0; c < logits.cols; ++c) den += std::exp(logits.at(r, c) - mx);
    total += mx + std::log(den) - logits.at(r, labels.at(r, 0));
  }
  return total / static_cast<double>(logits.rows);
}

double rel_error(const triad::Tensor& program, const Mat& reference) {
  if (program.rows() != reference.rows || program.cols() != reference.cols) {
    return INFINITY;
  }
  double worst = 0;
  const float* p = program.data();
  for (std::size_t i = 0; i < reference.a.size(); ++i) {
    const double ref = reference.a[i];
    const double err = std::abs(static_cast<double>(p[i]) - ref) /
                       std::max(1.0, std::abs(ref));
    if (std::isnan(err)) return INFINITY;
    worst = std::max(worst, err);
  }
  return worst;
}

}  // namespace perfbench
