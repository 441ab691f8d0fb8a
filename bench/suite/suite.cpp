#include "suite.hpp"

#include <algorithm>
#include <numeric>
#include <random>

#include "io/crc32.hpp"

namespace fbench {

void Checks::expect(bool ok, const std::string& what) {
  if (ok) return;
  std::lock_guard<std::mutex> lock(mu_);
  ++failures_;
  if (messages_.size() < 20) messages_.push_back(what);
}

std::size_t Checks::failures() const {
  std::lock_guard<std::mutex> lock(mu_);
  return failures_;
}

std::vector<std::string> Checks::messages() const {
  std::lock_guard<std::mutex> lock(mu_);
  return messages_;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + (stream + 1) * 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::uint64_t dataset_seed(std::uint64_t seed, std::uint64_t stream) {
  return derive_seed(seed, stream) >> 12;
}

std::vector<std::size_t> seeded_order(std::size_t n, std::uint64_t seed) {
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::mt19937_64 rng(seed);
  std::shuffle(order.begin(), order.end(), rng);
  return order;
}

std::uint32_t values_crc(const std::vector<float>& values) {
  return cosmo::crc32(values.data(), values.size() * sizeof(float));
}

}  // namespace fbench
