#include "fft/fft.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <mutex>
#include <numbers>
#include <string>
#include <unordered_map>

#include "common/telemetry.hpp"

namespace cosmo {

namespace {

/// Forward twiddle factors for a size-n transform, all stages concatenated:
/// the stage with half-length h (h = 1, 2, ..., n/2) owns entries
/// [h - 1, 2h - 1) holding exp(-2*pi*i*k / (2h)) for k in [0, h). The
/// inverse transform conjugates at the use site, so one table serves both
/// directions.
const std::vector<cplx>& twiddles_for(std::size_t n) {
  static std::mutex mu;
  static std::unordered_map<std::size_t, std::unique_ptr<const std::vector<cplx>>> cache;
  static std::size_t entry_count = 0;
  std::lock_guard lock(mu);
  auto it = cache.find(n);
  if (it == cache.end()) {
    std::vector<cplx> tw(n - 1);
    for (std::size_t half = 1; half < n; half <<= 1) {
      const double ang = -2.0 * std::numbers::pi / static_cast<double>(2 * half);
      for (std::size_t k = 0; k < half; ++k) {
        tw[half - 1 + k] = cplx(std::cos(ang * static_cast<double>(k)),
                                std::sin(ang * static_cast<double>(k)));
      }
    }
    it = cache.emplace(n, std::make_unique<const std::vector<cplx>>(std::move(tw))).first;
    ++entry_count;
  }
  fft_twiddle_cache_entries() = entry_count;
  return *it->second;
}

/// Edge of the gather/scatter tile for the strided y/z passes: 16 pencils
/// are transposed through cache-resident storage at a time, so the unit
/// stride runs along the tile instead of jumping a full pencil per element.
constexpr std::size_t kTile = 16;

/// The radix-2 kernel over a caller-held twiddle table (twiddles_for of
/// data.size()), so a loop of same-size pencils looks the table up once.
void fft_1d_with(std::span<cplx> data, const std::vector<cplx>& tw, bool inverse) {
  const std::size_t n = data.size();
  if (n == 1) return;

  // Bit-reversal permutation.
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(data[i], data[j]);
  }

  // Butterflies with cached per-size twiddle tables (exact trig per entry
  // instead of the w *= wlen recurrence, which drifts by ~len ulps across a
  // stage).
  for (std::size_t half = 1; half < n; half <<= 1) {
    const cplx* stage = tw.data() + (half - 1);
    const std::size_t len = half * 2;
    for (std::size_t i = 0; i < n; i += len) {
      for (std::size_t k = 0; k < half; ++k) {
        const cplx w = inverse ? std::conj(stage[k]) : stage[k];
        const cplx u = data[i + k];
        const cplx v = data[i + k + half] * w;
        data[i + k] = u + v;
        data[i + k + half] = u - v;
      }
    }
  }
  if (inverse) {
    const double inv_n = 1.0 / static_cast<double>(n);
    for (auto& x : data) x *= inv_n;
  }
}

}  // namespace

std::size_t& fft_twiddle_cache_entries() {
  static std::size_t count = 0;
  return count;
}

bool is_pow2(std::size_t n) { return n >= 1 && (n & (n - 1)) == 0; }

void fft_1d(std::span<cplx> data, bool inverse) {
  const std::size_t n = data.size();
  require(is_pow2(n), "fft_1d: size must be a power of two");
  if (n == 1) return;
  fft_1d_with(data, twiddles_for(n), inverse);
}

namespace {

/// The y and z passes of a 3-D transform over a row-major grid whose rows
/// hold \p row_len elements: nx for a full grid, nx/2 + 1 for the half
/// spectrum of a real input. Pencils along one axis are independent and
/// each writes only its own elements, so both passes parallelize over
/// pencil groups with output identical to the serial order. The strided
/// pencils move through kTile-wide transpose tiles, so the traversal reads
/// and writes kTile consecutive elements per row instead of one.
void fft_yz(cplx* data, std::size_t row_len, std::size_t ny, std::size_t nz, bool inverse,
            ThreadPool* pool) {
  const auto at = [&](std::size_t x, std::size_t y, std::size_t z) {
    return data + x + row_len * (y + ny * z);
  };

  // Along y: per z-plane.
  if (ny > 1) {
    const std::vector<cplx>& twy = twiddles_for(ny);
    parallel_for(pool, nz, [&](std::size_t lo, std::size_t hi) {
      std::vector<cplx> tile(kTile * ny);
      for (std::size_t z = lo; z < hi; ++z) {
        for (std::size_t x0 = 0; x0 < row_len; x0 += kTile) {
          const std::size_t tx = std::min(kTile, row_len - x0);
          for (std::size_t y = 0; y < ny; ++y) {
            const cplx* row = at(x0, y, z);
            for (std::size_t dx = 0; dx < tx; ++dx) tile[dx * ny + y] = row[dx];
          }
          for (std::size_t dx = 0; dx < tx; ++dx) {
            fft_1d_with(std::span(tile.data() + dx * ny, ny), twy, inverse);
          }
          for (std::size_t y = 0; y < ny; ++y) {
            cplx* row = at(x0, y, z);
            for (std::size_t dx = 0; dx < tx; ++dx) row[dx] = tile[dx * ny + y];
          }
        }
      }
    }, /*min_grain=*/1);
  }

  // Along z: same tiling, one y-row of columns per iteration.
  if (nz > 1) {
    const std::vector<cplx>& twz = twiddles_for(nz);
    parallel_for(pool, ny, [&](std::size_t lo, std::size_t hi) {
      std::vector<cplx> tile(kTile * nz);
      for (std::size_t y = lo; y < hi; ++y) {
        for (std::size_t x0 = 0; x0 < row_len; x0 += kTile) {
          const std::size_t tx = std::min(kTile, row_len - x0);
          for (std::size_t z = 0; z < nz; ++z) {
            const cplx* row = at(x0, y, z);
            for (std::size_t dx = 0; dx < tx; ++dx) tile[dx * nz + z] = row[dx];
          }
          for (std::size_t dx = 0; dx < tx; ++dx) {
            fft_1d_with(std::span(tile.data() + dx * nz, nz), twz, inverse);
          }
          for (std::size_t z = 0; z < nz; ++z) {
            cplx* row = at(x0, y, z);
            for (std::size_t dx = 0; dx < tx; ++dx) row[dx] = tile[dx * nz + z];
          }
        }
      }
    }, /*min_grain=*/1);
  }
}

void require_pow2_extents(const Dims& dims, const char* what) {
  require(is_pow2(dims.nx) && is_pow2(dims.ny) && is_pow2(dims.nz),
          std::string(what) + ": extents must be powers of two");
}

}  // namespace

void fft_3d(std::vector<cplx>& data, const Dims& dims, bool inverse, ThreadPool* pool) {
  TRACE_SPAN("fft.3d");
  require(data.size() == dims.count(), "fft_3d: size mismatch");
  require_pow2_extents(dims, "fft_3d");
  const std::size_t nx = dims.nx, ny = dims.ny;

  // Along x: contiguous rows, one pencil per (y, z). Each pass looks its
  // twiddle table up once, before it fans out; the pencils only read it.
  const std::vector<cplx>& twx = twiddles_for(nx);
  parallel_for(pool, ny * dims.nz, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t r = lo; r < hi; ++r) {
      fft_1d_with(std::span(data.data() + r * nx, nx), twx, inverse);
    }
  }, /*min_grain=*/4);
  fft_yz(data.data(), nx, ny, dims.nz, inverse, pool);
}

std::vector<cplx> fft_3d_r2c(std::span<const float> values, const Dims& dims, double offset,
                             ThreadPool* pool) {
  TRACE_SPAN("fft.3d");
  require(values.size() == dims.count(), "fft_3d_r2c: size mismatch");
  require_pow2_extents(dims, "fft_3d_r2c");
  const std::size_t nx = dims.nx, ny = dims.ny, nz = dims.nz;
  const std::size_t half = nx / 2 + 1;
  const std::size_t rows = ny * nz;
  std::vector<cplx> out(half * rows);

  // Along x: rows 2p and 2p + 1 ride in one complex pencil, a + i b. The
  // transforms of real rows are Hermitian, A[-k] = conj(A[k]), which splits
  // the pencil's transform C: A[k] = (C[k] + conj C[-k]) / 2 and
  // B[k] = (C[k] - conj C[-k]) / 2i, kept for k in [0, nx/2].
  const std::vector<cplx>& twx = twiddles_for(nx);
  parallel_for(pool, (rows + 1) / 2, [&](std::size_t lo, std::size_t hi) {
    std::vector<cplx> pencil(nx);
    for (std::size_t p = lo; p < hi; ++p) {
      const std::size_t ra = 2 * p;
      const bool paired = ra + 1 < rows;
      const float* a = values.data() + ra * nx;
      for (std::size_t x = 0; x < nx; ++x) {
        const double b = paired ? a[nx + x] - offset : 0.0;
        pencil[x] = cplx(a[x] - offset, b);
      }
      fft_1d_with(pencil, twx, /*inverse=*/false);
      cplx* out_a = out.data() + ra * half;
      for (std::size_t k = 0; k < half; ++k) {
        const cplx c = pencil[k];
        const cplx m = std::conj(pencil[(nx - k) & (nx - 1)]);
        out_a[k] = (c + m) * 0.5;
        if (paired) out_a[half + k] = (c - m) * cplx(0.0, -0.5);
      }
    }
  }, /*min_grain=*/2);
  fft_yz(out.data(), half, ny, nz, /*inverse=*/false, pool);
  return out;
}

}  // namespace cosmo
