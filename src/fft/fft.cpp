#include "fft/fft.hpp"

#include <cmath>
#include <memory>
#include <mutex>
#include <numbers>
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

void fft_3d(std::vector<cplx>& data, const Dims& dims, bool inverse, ThreadPool* pool) {
  TRACE_SPAN("fft.3d");
  require(data.size() == dims.count(), "fft_3d: size mismatch");
  require(is_pow2(dims.nx) && is_pow2(dims.ny) && is_pow2(dims.nz),
          "fft_3d: extents must be powers of two");
  const std::size_t nx = dims.nx, ny = dims.ny, nz = dims.nz;

  // Pencils along one axis are independent, and each writes only its own
  // elements, so every pass parallelizes over pencil groups with output
  // identical to the serial order. Each pass looks its twiddle table up
  // once, before it fans out; the pencils only read it.

  // Along x: contiguous rows, one pencil per (y, z).
  const std::vector<cplx>& twx = twiddles_for(nx);
  parallel_for(pool, ny * nz, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t r = lo; r < hi; ++r) {
      const std::size_t y = r % ny;
      const std::size_t z = r / ny;
      fft_1d_with(std::span(data.data() + dims.index(0, y, z), nx), twx, inverse);
    }
  }, /*min_grain=*/4);

  // Along y: per z-plane, columns gathered through a kTile-wide transpose
  // tile so the strided traversal reads/writes kTile consecutive elements
  // per row instead of one.
  if (ny > 1) {
    const std::vector<cplx>& twy = twiddles_for(ny);
    parallel_for(pool, nz, [&](std::size_t lo, std::size_t hi) {
      std::vector<cplx> tile(kTile * ny);
      for (std::size_t z = lo; z < hi; ++z) {
        for (std::size_t x0 = 0; x0 < nx; x0 += kTile) {
          const std::size_t tx = std::min(kTile, nx - x0);
          for (std::size_t y = 0; y < ny; ++y) {
            const cplx* row = data.data() + dims.index(x0, y, z);
            for (std::size_t dx = 0; dx < tx; ++dx) tile[dx * ny + y] = row[dx];
          }
          for (std::size_t dx = 0; dx < tx; ++dx) {
            fft_1d_with(std::span(tile.data() + dx * ny, ny), twy, inverse);
          }
          for (std::size_t y = 0; y < ny; ++y) {
            cplx* row = data.data() + dims.index(x0, y, z);
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
        for (std::size_t x0 = 0; x0 < nx; x0 += kTile) {
          const std::size_t tx = std::min(kTile, nx - x0);
          for (std::size_t z = 0; z < nz; ++z) {
            const cplx* row = data.data() + dims.index(x0, y, z);
            for (std::size_t dx = 0; dx < tx; ++dx) tile[dx * nz + z] = row[dx];
          }
          for (std::size_t dx = 0; dx < tx; ++dx) {
            fft_1d_with(std::span(tile.data() + dx * nz, nz), twz, inverse);
          }
          for (std::size_t z = 0; z < nz; ++z) {
            cplx* row = data.data() + dims.index(x0, y, z);
            for (std::size_t dx = 0; dx < tx; ++dx) row[dx] = tile[dx * nz + z];
          }
        }
      }
    }, /*min_grain=*/1);
  }
}

std::vector<cplx> fft_3d_real(std::span<const float> values, const Dims& dims,
                              ThreadPool* pool) {
  require(values.size() == dims.count(), "fft_3d_real: size mismatch");
  std::vector<cplx> data(values.size());
  for (std::size_t i = 0; i < values.size(); ++i) data[i] = cplx(values[i], 0.0);
  fft_3d(data, dims, /*inverse=*/false, pool);
  return data;
}

}  // namespace cosmo
