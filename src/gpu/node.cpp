#include "gpu/node.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace cosmo::gpu {

NodeCompressionReport model_node_compression(const NodeConfig& node,
                                             std::uint64_t snapshot_bytes,
                                             double bitrate) {
  require(node.gpu_count >= 1, "node: need at least one GPU");
  require(node.pcie_links >= 1, "node: need at least one PCIe link");
  require(snapshot_bytes > 0, "node: empty snapshot");

  GpuSimulator sim(node.gpu);
  const std::uint64_t per_gpu =
      snapshot_bytes / static_cast<std::uint64_t>(node.gpu_count);
  const auto compressed_per_gpu =
      static_cast<std::uint64_t>(static_cast<double>(per_gpu) * bitrate / 32.0);

  // Kernels run concurrently on independent GPUs: node kernel time is one
  // GPU's kernel time.
  const double kernel =
      sim.kernel_seconds(per_gpu, sim.kernel_rates("zfp", bitrate).compress_gbps);

  // Compressed streams cross the host links; links are shared, so each link
  // carries ceil(gpus / links) transfers back-to-back.
  const int per_link = (node.gpu_count + node.pcie_links - 1) / node.pcie_links;
  const double transfer =
      static_cast<double>(per_link) * sim.transfer_seconds(compressed_per_gpu);

  NodeCompressionReport report;
  report.kernel_seconds = kernel;
  report.transfer_seconds = transfer;
  report.total_seconds = kernel + transfer +
                         sim.alloc_seconds(compressed_per_gpu) +
                         sim.free_seconds(compressed_per_gpu);
  report.node_throughput_gbps =
      static_cast<double>(snapshot_bytes) / report.total_seconds / 1e9;
  report.overhead_fraction = report.total_seconds / node.simulation_seconds;
  return report;
}

double cpu_overhead_fraction(double cpu_gbps, std::uint64_t snapshot_bytes,
                             double simulation_seconds) {
  require(cpu_gbps > 0.0, "node: cpu throughput must be positive");
  const double seconds = static_cast<double>(snapshot_bytes) / (cpu_gbps * 1e9);
  return seconds / simulation_seconds;
}

}  // namespace cosmo::gpu
