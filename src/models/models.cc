#include "models/models.h"

#include <cmath>

#include "api/models.h"

namespace triad {

// The legacy builders are thin shims over the api:: modules — one front-end,
// two spellings. tests/test_api.cc asserts the IR is bit-identical through
// either path under both ours() and naive().

ModelGraph build_gcn(const GcnConfig& cfg, Rng& rng) {
  return api::Gcn(cfg).build(rng);
}

ModelGraph build_gat(const GatConfig& cfg, Rng& rng) {
  return api::Gat(cfg).build(rng);
}

ModelGraph build_edgeconv(const EdgeConvConfig& cfg, Rng& rng) {
  return api::EdgeConv(cfg).build(rng);
}

ModelGraph build_monet(const MoNetConfig& cfg, Rng& rng) {
  return api::MoNet(cfg).build(rng);
}

Tensor make_pseudo_coords(const Graph& g, std::int64_t dim, MemoryPool* pool) {
  Tensor p(g.num_edges(), dim, MemTag::kInput, pool);
  for (std::int64_t e = 0; e < g.num_edges(); ++e) {
    float* row = p.row(e);
    const auto du = static_cast<float>(std::max<std::int64_t>(
        1, g.out_degree(g.edge_src()[e])));
    const auto dv = static_cast<float>(std::max<std::int64_t>(
        1, g.in_degree(g.edge_dst()[e])));
    for (std::int64_t j = 0; j < dim; ++j) {
      switch (j % 3) {
        case 0: row[j] = 1.f / std::sqrt(du); break;
        case 1: row[j] = 1.f / std::sqrt(dv); break;
        default: row[j] = 1.f; break;
      }
    }
  }
  return p;
}

}  // namespace triad
