/// \file field.hpp
/// \brief Dimension descriptors and owning/non-owning views of scalar fields.
///
/// Both HACC (1-D particle arrays) and Nyx (3-D grids) data are represented
/// as a flat float buffer plus a Dims descriptor, matching the paper's
/// dimension-conversion trick (Section IV-B4): a 1-D HACC array is
/// reinterpreted as 512x512x512 or 2,097,152x8x8 by only changing Dims.
#pragma once

#include <array>
#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "common/error.hpp"

namespace cosmo {

/// Up-to-3-D extents; unused trailing dimensions are 1.
struct Dims {
  std::size_t nx = 1;  ///< fastest-varying extent
  std::size_t ny = 1;
  std::size_t nz = 1;  ///< slowest-varying extent

  static Dims d1(std::size_t n) { return {n, 1, 1}; }
  static Dims d2(std::size_t x, std::size_t y) { return {x, y, 1}; }
  static Dims d3(std::size_t x, std::size_t y, std::size_t z) { return {x, y, z}; }

  [[nodiscard]] std::size_t count() const { return nx * ny * nz; }

  /// 1, 2 or 3: the number of extents larger than one (minimum 1).
  [[nodiscard]] int rank() const {
    if (nz > 1) return 3;
    if (ny > 1) return 2;
    return 1;
  }

  /// Row-major linear index of (x, y, z).
  [[nodiscard]] std::size_t index(std::size_t x, std::size_t y, std::size_t z) const {
    return (z * ny + y) * nx + x;
  }

  bool operator==(const Dims&) const = default;

  [[nodiscard]] std::string to_string() const;
};

/// An owning scalar field: name + extents + flat row-major float storage.
struct Field {
  std::string name;
  Dims dims;
  std::vector<float> data;

  Field() = default;
  Field(std::string name_, Dims dims_)
      : name(std::move(name_)), dims(dims_), data(dims_.count(), 0.0f) {}
  Field(std::string name_, Dims dims_, std::vector<float> data_)
      : name(std::move(name_)), dims(dims_), data(std::move(data_)) {
    if (data.size() != dims.count()) {
      throw InvalidArgument("Field '" + name + "': data size mismatch");
    }
  }

  [[nodiscard]] std::span<const float> view() const { return data; }
  [[nodiscard]] std::span<float> view() { return data; }
  [[nodiscard]] std::size_t bytes() const { return data.size() * sizeof(float); }

  /// Returns a copy with the same data reinterpreted under new extents
  /// (the paper's HACC 1-D -> 3-D conversion). Pads with zeros when the new
  /// shape is larger; truncation is rejected.
  [[nodiscard]] Field reshaped(Dims new_dims) const;
};

/// Minimum/maximum over a span; throws on empty input.
std::pair<float, float> value_range(std::span<const float> values);

/// Overflow-checked dims.count() for extents deserialized from untrusted
/// streams: throws FormatError (tagged with \p where) when any extent is
/// zero or nx*ny*nz would overflow std::size_t. Decoders must size their
/// output through this instead of dims.count() so corrupted headers cannot
/// wrap the element count.
std::size_t checked_stream_count(const Dims& dims, const char* where);

}  // namespace cosmo
