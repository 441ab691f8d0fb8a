#include "gpu/sim.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace cosmo::gpu {

namespace {

/// FLOPS-derived derating: bandwidth-bound kernels still lose efficiency on
/// compute-poor architectures (Kepler), cf. Fig. 9's ordering.
double flop_factor(const DeviceSpec& spec) {
  return std::clamp(spec.peak_fp32_tflops / 12.0, 0.35, 1.0);
}

}  // namespace

GpuSimulator::GpuSimulator(DeviceSpec spec, std::uint64_t seed)
    : spec_(std::move(spec)), rng_(seed) {}

BufferId GpuSimulator::alloc(std::uint64_t bytes) {
  const auto capacity = static_cast<std::uint64_t>(spec_.memory_gb * 1e9);
  if (used_ + bytes > capacity) {
    throw OutOfMemoryError("gpu: device memory oversubscribed on " + spec_.name);
  }
  const BufferId id = next_id_++;
  allocations_[id] = bytes;
  used_ += bytes;
  return id;
}

void GpuSimulator::free(BufferId id) {
  const auto it = allocations_.find(id);
  require(it != allocations_.end(), "gpu: double free or unknown buffer");
  used_ -= it->second;
  allocations_.erase(it);
}

double GpuSimulator::jitter() {
  // ~N(1, 0.01), clamped: models run-to-run variation on a quiet node
  // ("all the standard deviation values are relatively negligible").
  return std::clamp(1.0 + 0.01 * rng_.normal(), 0.95, 1.05);
}

double GpuSimulator::transfer_seconds(std::uint64_t bytes) {
  return (kPcieLatency + static_cast<double>(bytes) / (kPcieGbps * 1e9)) * jitter();
}

double GpuSimulator::kernel_seconds(std::uint64_t raw_bytes, double kernel_gbps) {
  require(kernel_gbps > 0.0, "gpu: kernel rate must be positive");
  const double launch_latency = 8e-6;
  return (launch_latency + static_cast<double>(raw_bytes) / (kernel_gbps * 1e9)) * jitter();
}

double GpuSimulator::alloc_seconds(std::uint64_t bytes) {
  // cudaMalloc: driver overhead plus page-table setup growing with size.
  return (2.5e-4 + static_cast<double>(bytes) / 500e9) * jitter();
}

double GpuSimulator::free_seconds(std::uint64_t bytes) {
  return (1.2e-4 + static_cast<double>(bytes) / 1000e9) * jitter();
}

GpuSimulator::KernelRates GpuSimulator::kernel_rates(const std::string& profile,
                                                     double bitrate) const {
  const double bw = spec_.memory_bw_gbps * flop_factor(spec_);
  if (profile == "zfp") {
    // Memory-bound with bitrate-dependent coding cost: higher bitrates emit
    // more bit planes per block, so throughput falls with bitrate
    // (paper: "the kernel throughput is also decreased by increasing the
    // bitrate"). Decompression serializes more on the embedded stream.
    return {0.35 * bw / (1.0 + 0.15 * bitrate), 0.28 * bw / (1.0 + 0.15 * bitrate)};
  }
  if (profile == "sz") {
    // OpenMP prototype with unoptimized memory layout (paper Section IV-B1);
    // bitrate-independent because the prediction pass dominates.
    return {0.02 * bw, 0.02 * bw};
  }
  if (profile == "fz") {
    // FZ-GPU (arXiv:2304.12557): the bitshuffle + sparsifier passes are
    // byte-oriented and branch-light, so the pipeline runs near memory
    // bandwidth with only a weak bitrate dependence (denser planes mean a
    // little more sparsifier payload traffic).
    return {0.55 * bw / (1.0 + 0.04 * bitrate), 0.50 * bw / (1.0 + 0.04 * bitrate)};
  }
  throw InvalidArgument("gpu: unknown kernel profile '" + profile +
                        "' (known: zfp, sz, fz)");
}

void GpuSimulator::poll_faults(const char* where) {
  // Explicitly attached plan first, then the process-wide one; both are
  // nullptr in normal operation, so this is two pointer loads on the
  // fault-free path and the timing model (and its jitter stream) is
  // untouched.
  if (fault_plan_ != nullptr) {
    fault_plan_->maybe_throw_gpu_transient(where);
    fault_plan_->maybe_throw_gpu_oom(where);
  }
  if (auto* global = fault::active(); global != nullptr && global != fault_plan_) {
    global->maybe_throw_gpu_transient(where);
    global->maybe_throw_gpu_oom(where);
  }
}

TimingBreakdown GpuSimulator::model_compression(std::uint64_t raw_bytes,
                                                std::uint64_t compressed_bytes,
                                                double kernel_gbps) {
  poll_faults("model_compression");
  TimingBreakdown t;
  // init: parameter upload + output allocation on device.
  t.init = transfer_seconds(256) + alloc_seconds(compressed_bytes);
  t.kernel = kernel_seconds(raw_bytes, kernel_gbps);
  t.memcpy = transfer_seconds(compressed_bytes);  // D2H of compressed stream
  t.free = free_seconds(compressed_bytes);
  return t;
}

TimingBreakdown GpuSimulator::model_decompression(std::uint64_t raw_bytes,
                                                  std::uint64_t compressed_bytes,
                                                  double kernel_gbps) {
  poll_faults("model_decompression");
  TimingBreakdown t;
  t.init = transfer_seconds(256) + alloc_seconds(raw_bytes);
  t.memcpy = transfer_seconds(compressed_bytes);  // H2D of compressed stream
  t.kernel = kernel_seconds(raw_bytes, kernel_gbps);
  t.free = free_seconds(compressed_bytes);
  return t;
}

double GpuSimulator::baseline_transfer_seconds(std::uint64_t raw_bytes) {
  return transfer_seconds(raw_bytes);
}

}  // namespace cosmo::gpu
