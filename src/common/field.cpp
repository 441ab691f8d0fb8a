#include "common/field.hpp"

#include <algorithm>

#include "common/str.hpp"

namespace cosmo {

std::string Dims::to_string() const {
  if (rank() == 1) return strprintf("%zu", nx);
  if (rank() == 2) return strprintf("%zux%zu", nx, ny);
  return strprintf("%zux%zux%zu", nx, ny, nz);
}

Field Field::reshaped(Dims new_dims) const {
  require(new_dims.count() >= data.size(),
          "Field::reshaped: target shape smaller than data (" + new_dims.to_string() + ")");
  Field out(name, new_dims);
  std::copy(data.begin(), data.end(), out.data.begin());
  return out;
}

std::size_t checked_stream_count(const Dims& dims, const char* where) {
  constexpr std::size_t kMax = static_cast<std::size_t>(-1);
  if (dims.nx == 0 || dims.ny == 0 || dims.nz == 0) {
    throw FormatError(std::string(where) + ": zero extent in stream dims " + dims.to_string());
  }
  if (dims.nx > kMax / dims.ny || dims.nx * dims.ny > kMax / dims.nz) {
    throw FormatError(std::string(where) + ": stream dims overflow " + dims.to_string());
  }
  return dims.nx * dims.ny * dims.nz;
}

std::pair<float, float> value_range(std::span<const float> values) {
  require(!values.empty(), "value_range: empty span");
  const auto [lo, hi] = std::minmax_element(values.begin(), values.end());
  return {*lo, *hi};
}

}  // namespace cosmo
