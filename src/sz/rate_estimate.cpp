#include "sz/rate_estimate.hpp"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "codec/huffman.hpp"
#include "sz/predictor.hpp"
#include "sz/quantizer.hpp"

namespace cosmo::sz {

namespace {

/// Histogram over the codes [0, 2*radius) in pages of kPageCodes counters,
/// each allocated, zeroed, on its first count. Small prediction errors put
/// most codes near the radius, so a call touches a page or two instead of
/// zero-filling all 2*radius counters (512 KiB at the default radius).
class CodeHistogram {
 public:
  explicit CodeHistogram(std::size_t codes) : pages_((codes + kPageCodes - 1) / kPageCodes) {}

  void add(std::uint32_t code) {
    std::unique_ptr<std::uint64_t[]>& page = pages_[code / kPageCodes];
    if (!page) page = std::make_unique<std::uint64_t[]>(kPageCodes);
    ++page[code % kPageCodes];
  }

  /// The nonzero counts in code order, the order a scan of a flat
  /// histogram would give.
  [[nodiscard]] std::vector<std::uint64_t> nonzero() const {
    std::vector<std::uint64_t> out;
    for (const auto& page : pages_) {
      if (!page) continue;
      for (std::size_t i = 0; i < kPageCodes; ++i) {
        if (page[i] > 0) out.push_back(page[i]);
      }
    }
    return out;
  }

 private:
  static constexpr std::size_t kPageCodes = 4096;
  std::vector<std::unique_ptr<std::uint64_t[]>> pages_;
};

}  // namespace

RateEstimate estimate_rate(std::span<const float> data, const Dims& dims,
                           const Params& params, std::size_t block_stride) {
  require(data.size() == dims.count(), "estimate_rate: data/dims size mismatch");
  require(!data.empty(), "estimate_rate: empty input");
  require(block_stride >= 1, "estimate_rate: block_stride must be >= 1");
  const std::size_t edge =
      params.block_edge ? params.block_edge : default_block_edge(dims.rank());

  const Quantizer quant(params.abs_error_bound, params.radius);
  // Codes are 0 (unpredictable) or (error + radius) in (0, 2*radius): a
  // histogram indexed by code replaces the old std::map (the map's node
  // allocations and log-n lookups dominated the estimator's runtime).
  const std::size_t code_space = 2 * static_cast<std::size_t>(params.radius);
  require(code_space <= (1u << 26), "estimate_rate: radius too large");
  CodeHistogram code_freq(code_space);
  // SZ prediction never crosses a block border, so one block's
  // reconstruction is all the Lorenzo stencil reads. It has the field's
  // rank, with every extent the field has at the block edge.
  const Dims local = Dims::d3(edge, dims.rank() >= 2 ? edge : 1, dims.rank() >= 3 ? edge : 1);
  std::vector<float> recon(local.count(), 0.0f);
  std::size_t unpredictable = 0;
  std::size_t sampled_values = 0;
  std::size_t block_index = 0;
  std::size_t sampled_blocks = 0;
  std::size_t total_blocks = 0;
  std::size_t regression_blocks = 0;

  for (std::size_t z0 = 0; z0 < dims.nz; z0 += edge) {
    for (std::size_t y0 = 0; y0 < dims.ny; y0 += edge) {
      for (std::size_t x0 = 0; x0 < dims.nx; x0 += edge) {
        ++total_blocks;
        // Deterministic sampling: every block_stride-th block in the same
        // z-major traversal compress() uses, starting at block 0. SZ
        // prediction never crosses block borders, so each sampled block
        // quantizes exactly as it would in a full run.
        if (block_index++ % block_stride != 0) continue;
        ++sampled_blocks;
        BlockRange blk;
        blk.x0 = x0;
        blk.x1 = std::min(x0 + edge, dims.nx);
        blk.y0 = y0;
        blk.y1 = std::min(y0 + edge, dims.ny);
        blk.z0 = z0;
        blk.z1 = std::min(z0 + edge, dims.nz);
        const BlockRange local_blk{0, blk.x1 - x0, 0, blk.y1 - y0, 0, blk.z1 - z0};

        bool use_reg = false;
        RegressionCoef coef;
        if (params.regression && blk.count() >= 8) {
          coef = fit_regression(data, dims, blk);
          use_reg = regression_error_estimate(data, dims, blk, coef) <
                    lorenzo_error_estimate(data, dims, blk);
        }
        if (use_reg) ++regression_blocks;
        sampled_values += blk.count();

        for (std::size_t dz = 0; dz < local_blk.z1; ++dz) {
          for (std::size_t dy = 0; dy < local_blk.y1; ++dy) {
            for (std::size_t dx = 0; dx < local_blk.x1; ++dx) {
              const float value = data[dims.index(x0 + dx, y0 + dy, z0 + dz)];
              const float pred = use_reg ? coef.predict(dx, dy, dz)
                                         : lorenzo_predict(recon, local, local_blk, dx, dy, dz);
              const Quantizer::Result q = quant.quantize(value, pred);
              code_freq.add(q.code);
              const std::size_t at = local.index(dx, dy, dz);
              if (q.code == 0) {
                ++unpredictable;
                recon[at] = value;
              } else {
                recon[at] = q.reconstructed;
              }
            }
          }
        }
      }
    }
  }

  const std::vector<std::uint64_t> freqs = code_freq.nonzero();

  RateEstimate est;
  // All per-value statistics come from the sampled blocks; with stride 1
  // that is the whole field, with stride N it is an unbiased extrapolation
  // (block metadata scales with blocks-per-value, which the sample carries).
  const double n = static_cast<double>(sampled_values);
  est.entropy_bits_per_value = shannon_entropy_bits(freqs);
  est.unpredictable_fraction = static_cast<double>(unpredictable) / n;
  est.sampled_blocks = sampled_blocks;
  est.total_blocks = total_blocks;
  // Unpredictable values carry a full float on top of their (rare) code;
  // per-block metadata: 1 flag byte + 16 coef bytes for regression blocks.
  const double metadata_bits = (static_cast<double>(sampled_blocks) * 8.0 +
                                static_cast<double>(regression_blocks) * 128.0) /
                               n;
  est.estimated_bits_per_value =
      est.entropy_bits_per_value + 32.0 * est.unpredictable_fraction + metadata_bits;
  return est;
}

}  // namespace cosmo::sz
