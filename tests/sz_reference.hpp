/// \file sz_reference.hpp
/// \brief Test oracle for the SZ stream format: the original serial
/// compressor, which predicts from a field-sized, zero-filled
/// reconstruction with the general masked Lorenzo stencil at every point.
///
/// The library compressor predicts from one block-sized tile per task, runs
/// the interior stencil fast paths and writes its code array without
/// zero-filling it; its ABS and PW_REL streams must equal this oracle's
/// byte for byte. The Huffman and LZSS stages are the library's own (they
/// have their own oracles in huffman_reference.hpp and lzss_reference.hpp).
#pragma once

#include <cmath>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "codec/huffman.hpp"
#include "codec/lzss.hpp"
#include "sz/predictor.hpp"
#include "sz/pwrel.hpp"
#include "sz/quantizer.hpp"
#include "sz/sz.hpp"

namespace cosmo::test {

namespace sz_reference_detail {

inline void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

inline void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

inline void put_f32(std::vector<std::uint8_t>& out, float v) {
  std::uint32_t bits;
  std::memcpy(&bits, &v, 4);
  put_u32(out, bits);
}

inline void put_f64(std::vector<std::uint8_t>& out, double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, 8);
  put_u64(out, bits);
}

inline void put_bytes(std::vector<std::uint8_t>& out, const std::vector<std::uint8_t>& bytes) {
  out.insert(out.end(), bytes.begin(), bytes.end());
}

}  // namespace sz_reference_detail

/// ABS-mode stream of sz::compress for \p data.
inline std::vector<std::uint8_t> sz_compress_reference(std::span<const float> data,
                                                       const Dims& dims,
                                                       const sz::Params& params) {
  using namespace sz_reference_detail;
  const std::size_t edge =
      params.block_edge ? params.block_edge : sz::default_block_edge(dims.rank());
  const sz::Quantizer quant(params.abs_error_bound, params.radius);

  std::vector<float> recon(data.size(), 0.0f);
  std::vector<std::uint32_t> codes;
  std::vector<std::uint8_t> block_flags;
  std::vector<sz::RegressionCoef> coefs;
  std::vector<float> unpred;
  for (std::size_t z0 = 0; z0 < dims.nz; z0 += edge) {
    for (std::size_t y0 = 0; y0 < dims.ny; y0 += edge) {
      for (std::size_t x0 = 0; x0 < dims.nx; x0 += edge) {
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
        block_flags.push_back(use_reg ? 1 : 0);
        if (use_reg) coefs.push_back(coef);
        for (std::size_t z = blk.z0; z < blk.z1; ++z) {
          for (std::size_t y = blk.y0; y < blk.y1; ++y) {
            for (std::size_t x = blk.x0; x < blk.x1; ++x) {
              const std::size_t idx = dims.index(x, y, z);
              const float pred = use_reg
                                     ? coef.predict(x - blk.x0, y - blk.y0, z - blk.z0)
                                     : sz::lorenzo_predict(recon, dims, blk, x, y, z);
              const sz::Quantizer::Result q = quant.quantize(data[idx], pred);
              codes.push_back(q.code);
              if (q.code == 0) {
                unpred.push_back(data[idx]);
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

  std::vector<std::uint8_t> body;
  put_u32(body, 0x535A4331);  // "SZC1"
  put_u64(body, dims.nx);
  put_u64(body, dims.ny);
  put_u64(body, dims.nz);
  put_f64(body, params.abs_error_bound);
  put_u32(body, params.radius);
  put_u64(body, edge);
  put_u64(body, block_flags.size());
  put_u64(body, coefs.size());
  const std::vector<std::uint8_t> huff = huffman_encode(codes);
  put_u64(body, huff.size());
  put_u64(body, unpred.size());
  put_bytes(body, block_flags);
  for (const auto& c : coefs) {
    put_f32(body, c.a);
    put_f32(body, c.b);
    put_f32(body, c.c);
    put_f32(body, c.d);
  }
  put_bytes(body, huff);
  for (const float v : unpred) put_f32(body, v);

  std::vector<std::uint8_t> out;
  if (params.lossless) {
    const std::vector<std::uint8_t> packed = lzss_encode(body);
    if (packed.size() < body.size()) {
      out.push_back(1);
      put_bytes(out, packed);
      return out;
    }
  }
  out.push_back(0);
  put_bytes(out, body);
  return out;
}

/// PW_REL stream of sz::compress_pwrel for \p data.
inline std::vector<std::uint8_t> sz_compress_pwrel_reference(std::span<const float> data,
                                                             const Dims& dims,
                                                             const sz::PwRelParams& params) {
  using namespace sz_reference_detail;
  double max_abs = 0.0;
  for (const float v : data) max_abs = std::max(max_abs, std::fabs(static_cast<double>(v)));
  const double ratio = params.zero_threshold_ratio > 0.0 ? params.zero_threshold_ratio : 1e-10;
  const double thresh = max_abs > 0.0 ? max_abs * ratio : 0.0;
  const double log_floor = thresh > 0.0 ? std::log(thresh) : 0.0;
  std::vector<std::uint32_t> classes(data.size(), 0);
  std::vector<float> logs(data.size(), 0.0f);
  for (std::size_t i = 0; i < data.size(); ++i) {
    const double v = data[i];
    if (std::fabs(v) <= thresh) {
      classes[i] = 0;
      logs[i] = static_cast<float>(log_floor);
    } else {
      classes[i] = v > 0.0 ? 1 : 2;
      logs[i] = static_cast<float>(std::log(std::fabs(v)));
    }
  }
  sz::Params abs_params;
  abs_params.abs_error_bound = std::log(1.0 + params.pw_rel_bound);
  abs_params.block_edge = params.block_edge;
  abs_params.regression = params.regression;
  abs_params.lossless = params.lossless;
  const std::vector<std::uint8_t> log_stream = sz_compress_reference(logs, dims, abs_params);
  const std::vector<std::uint8_t> class_stream = huffman_encode(classes);
  const std::vector<std::uint8_t> class_packed = lzss_encode(class_stream);
  const bool class_lz = class_packed.size() < class_stream.size();
  const std::vector<std::uint8_t>& cls = class_lz ? class_packed : class_stream;

  std::vector<std::uint8_t> out;
  put_u32(out, 0x535A5052);  // "SZPR"
  put_u64(out, data.size());
  out.push_back(class_lz ? 1 : 0);
  put_f64(out, thresh);
  put_u64(out, log_stream.size());
  put_u64(out, cls.size());
  put_bytes(out, log_stream);
  put_bytes(out, cls);
  return out;
}

}  // namespace cosmo::test
