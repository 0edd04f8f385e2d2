#include "machine/accelerator_model.hpp"

namespace machine {

double AcceleratorModel::transfer_seconds(std::size_t m_bytes) const noexcept {
    const double bw = link_bandwidth_mbps * 1e6;
    const double body = bw > 0.0 ? static_cast<double>(m_bytes) / bw : 0.0;
    return link_latency_us * 1e-6 + body;
}

const std::vector<AcceleratorModel>& accelerator_roster() {
    // Device "clock" is only used for call-overhead conversion, so it is set
    // to 1000 MHz and the kernel-launch cost carried in the link latency
    // instead (a GPU launch costs ~5-10 us regardless of the kernel).  The
    // SRAM level models the combined shared-memory/L2 working set a blocked
    // dgemm keeps resident; HBM is the size-0 backstop.  FP64 ceilings:
    // P100 ~4.7 TF, V100 ~7 TF, A100 ~9.7 TF (19.5 TF only via tensor
    // cores, which plain dgemm-class code does not hit); sustained dgemm
    // reaches ~85-90% of those.  HBM STREAM: ~550, ~830, ~1400 GB/s.
    // Host links: PCIe gen3 x16 ~12 GB/s effective, gen4 x16 ~24 GB/s.
    static const std::vector<AcceleratorModel> accels = {
        {"P100",
         {"P100-HBM2", 1000.0, 4.7e6, 0.85,
          {{4 * 1024 * 1024, 550.0e3 * 4.0}, {0, 550.0e3}}, 0.0, 550.0e3},
         8.0, 12.0e3},
        {"V100",
         {"V100-HBM2", 1000.0, 7.0e6, 0.88,
          {{6 * 1024 * 1024, 830.0e3 * 4.0}, {0, 830.0e3}}, 0.0, 830.0e3},
         7.0, 12.0e3},
        {"A100",
         {"A100-HBM2e", 1000.0, 9.7e6, 0.9,
          {{40 * 1024 * 1024, 1400.0e3 * 4.0}, {0, 1400.0e3}}, 0.0, 1400.0e3},
         6.0, 24.0e3},
    };
    return accels;
}

} // namespace machine
