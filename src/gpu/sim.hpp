/// \file sim.hpp
/// \brief Simulated GPU execution model.
///
/// Substitution for real CUDA hardware (see DESIGN.md): codec kernels are
/// executed bit-exactly on the CPU, while their *timing* is produced by an
/// analytic model of the device from Table I:
///  - transfers: PCIe 3.0 x16 with fixed latency (uniform across devices,
///    as the paper notes);
///  - kernels: memory-bandwidth-bound with a FLOPS-derived derating for
///    older architectures and a bitrate-dependent cost (the paper observes
///    kernel throughput decreasing with bitrate, Figs. 7/10);
///  - the {init, kernel, memcpy, free} breakdown of Fig. 7.
///
/// A small deterministic jitter models run-to-run variation so the paper's
/// 10-warmup / 10-measured methodology produces meaningful stddevs.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "common/fault.hpp"
#include "common/telemetry.hpp"
#include "common/timer.hpp"
#include "gpu/specs.hpp"
#include "random/rng.hpp"

namespace cosmo::gpu {

/// A device-resident allocation handle.
using BufferId = std::uint64_t;

/// The simulator: memory accounting plus the timing model.
class GpuSimulator {
 public:
  explicit GpuSimulator(DeviceSpec spec, std::uint64_t seed = 1234);

  [[nodiscard]] const DeviceSpec& spec() const { return spec_; }

  /// Allocates device memory; throws OutOfMemoryError when the device
  /// would be oversubscribed.
  BufferId alloc(std::uint64_t bytes);

  /// Attaches a fault plan: every subsequent model_compression /
  /// model_decompression call polls it for injected transient errors and
  /// device-OOM. nullptr (the default) detaches it. The simulator also
  /// polls the process-wide fault::active() plan, so pipelines can inject
  /// faults without holding a simulator reference.
  void set_fault_plan(fault::FaultPlan* plan) { fault_plan_ = plan; }
  [[nodiscard]] fault::FaultPlan* fault_plan() const { return fault_plan_; }
  void free(BufferId id);
  [[nodiscard]] std::uint64_t used_bytes() const { return used_; }

  /// Host<->device transfer time for \p bytes (PCIe model, with jitter).
  double transfer_seconds(std::uint64_t bytes);

  /// Kernel time for processing \p raw_bytes at \p kernel_gbps (with jitter).
  double kernel_seconds(std::uint64_t raw_bytes, double kernel_gbps);

  /// Allocation / deallocation overheads.
  double alloc_seconds(std::uint64_t bytes);
  double free_seconds(std::uint64_t bytes);

  /// One codec family's modeled kernel rates (GB/s of uncompressed data).
  struct KernelRates {
    double compress_gbps = 0.0;
    double decompress_gbps = 0.0;
  };

  /// The kernel-rate catalog, keyed by a codec's kernel-profile id:
  ///   "zfp" — cuZFP-style transform coding, throughput falling with bitrate;
  ///   "sz"  — the GPU-SZ OpenMP prototype (unoptimized memory layout);
  ///   "fz"  — FZ-GPU-style bitshuffle pipeline (arXiv:2304.12557), the
  ///           fastest family with only a weak bitrate dependence.
  /// Unknown profiles throw InvalidArgument listing the known ones.
  [[nodiscard]] KernelRates kernel_rates(const std::string& profile, double bitrate) const;

  /// Full pipeline models (Fig. 7): compression assumes raw data already in
  /// device memory and moves only the compressed stream D2H; decompression
  /// moves the compressed stream H2D and leaves raw data on the device.
  TimingBreakdown model_compression(std::uint64_t raw_bytes, std::uint64_t compressed_bytes,
                                    double kernel_gbps);
  TimingBreakdown model_decompression(std::uint64_t raw_bytes,
                                      std::uint64_t compressed_bytes, double kernel_gbps);

  /// Baseline: moving the raw (uncompressed) data over PCIe (the red dashed
  /// line in Fig. 7).
  double baseline_transfer_seconds(std::uint64_t raw_bytes);

 private:
  double jitter();
  void poll_faults(const char* where);

  fault::FaultPlan* fault_plan_ = nullptr;
  DeviceSpec spec_;
  Rng rng_;
  std::uint64_t used_ = 0;
  std::uint64_t next_id_ = 1;
  std::map<BufferId, std::uint64_t> allocations_;
};

/// Paper Section V-C methodology: runs \p model() 10 times as warm-up, then
/// 10 measured times, returning average/stddev statistics.
template <typename Fn>
RunningStats measure_with_warmup(Fn&& model, int warmups = 10, int runs = 10) {
  for (int i = 0; i < warmups; ++i) (void)model();
  RunningStats stats;
  for (int i = 0; i < runs; ++i) stats.add(model());
  return stats;
}

}  // namespace cosmo::gpu
