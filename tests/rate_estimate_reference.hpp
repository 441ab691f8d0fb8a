/// \file rate_estimate_reference.hpp
/// \brief Test oracle for sz::estimate_rate: the field-sized estimator. It
/// reconstructs into a buffer as large as the field and histograms the
/// codes in a zero-filled vector per call, then collects the nonzero
/// frequencies by scanning every code. The library estimator keeps one
/// block-sized reconstruction and clears only the codes it touched; every
/// RateEstimate field must stay bitwise equal to this oracle's.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "codec/huffman.hpp"
#include "sz/predictor.hpp"
#include "sz/quantizer.hpp"
#include "sz/rate_estimate.hpp"

namespace cosmo::test {

inline sz::RateEstimate estimate_rate_reference(std::span<const float> data, const Dims& dims,
                                                const sz::Params& params,
                                                std::size_t block_stride = 1) {
  require(data.size() == dims.count(), "estimate_rate: data/dims size mismatch");
  require(!data.empty(), "estimate_rate: empty input");
  require(block_stride >= 1, "estimate_rate: block_stride must be >= 1");
  const std::size_t edge =
      params.block_edge ? params.block_edge : sz::default_block_edge(dims.rank());

  const sz::Quantizer quant(params.abs_error_bound, params.radius);
  // Codes are 0 (unpredictable) or (error + radius) in (0, 2*radius): a flat
  // histogram indexed by code replaces the old std::map (the map's node
  // allocations and log-n lookups dominated the estimator's runtime).
  const std::size_t code_space = 2 * static_cast<std::size_t>(params.radius);
  require(code_space <= (1u << 26), "estimate_rate: radius too large");
  std::vector<float> recon(data.size(), 0.0f);
  std::vector<std::uint64_t> code_freq(code_space, 0);
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
        sz::BlockRange blk;
        blk.x0 = x0;
        blk.x1 = std::min(x0 + edge, dims.nx);
        blk.y0 = y0;
        blk.y1 = std::min(y0 + edge, dims.ny);
        blk.z0 = z0;
        blk.z1 = std::min(z0 + edge, dims.nz);

        bool use_reg = false;
        sz::RegressionCoef coef;
        if (params.regression && blk.count() >= 8) {
          coef = sz::fit_regression(data, dims, blk);
          use_reg = sz::regression_error_estimate(data, dims, blk, coef) <
                    sz::lorenzo_error_estimate(data, dims, blk);
        }
        if (use_reg) ++regression_blocks;
        sampled_values += blk.count();

        for (std::size_t z = blk.z0; z < blk.z1; ++z) {
          for (std::size_t y = blk.y0; y < blk.y1; ++y) {
            for (std::size_t x = blk.x0; x < blk.x1; ++x) {
              const std::size_t idx = dims.index(x, y, z);
              const float pred = use_reg
                                     ? coef.predict(x - blk.x0, y - blk.y0, z - blk.z0)
                                     : sz::lorenzo_predict(recon, dims, blk, x, y, z);
              const sz::Quantizer::Result q = quant.quantize(data[idx], pred);
              ++code_freq[q.code];
              if (q.code == 0) {
                ++unpredictable;
                recon[idx] = data[idx];
              } else {
                recon[idx] = q.reconstructed;
              }
            }
          }
        }
      }
    }
  }

  std::vector<std::uint64_t> freqs;
  for (const std::uint64_t f : code_freq) {
    if (f > 0) freqs.push_back(f);
  }

  sz::RateEstimate est;
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

}  // namespace cosmo::test
