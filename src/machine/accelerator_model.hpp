#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "machine/machine_model.hpp"

/// \file accelerator_model.hpp
/// Analytic accelerator-class (GPU-era) machine descriptions.
///
/// The paper asked in 1999 whether commodity PC clusters could displace the
/// vector and SMP machines of the day.  The modern form of the same question
/// is CPU cluster vs GPU node, so the roster here extends the Section 2
/// methodology to accelerator-class hardware: the device is just another
/// roofline MachineModel (HBM standing in for "main memory", a device-wide
/// effective flop ceiling standing in for the single CPU's), plus a priced
/// host<->device link in the netsim idiom,
///
///     t_transfer(m) = latency + m / bandwidth,
///
/// because a spectral-element time step that keeps bouncing fields across
/// PCIe loses exactly the way a 1999 cluster lost to its interconnect.  All
/// parameters are public, sustained (not marketing-peak) figures; results
/// derived from them are projections, clearly labelled as such by callers.
namespace machine {

/// An accelerator node: device roofline + host link.
struct AcceleratorModel {
    std::string name;
    /// Device roofline: `peak_mflops`/`fp_efficiency` give the sustained
    /// dgemm ceiling, `levels` holds {shared/L2-class SRAM, HBM(size 0)}.
    MachineModel device;
    double link_latency_us = 0.0;    ///< kernel-launch + DMA setup latency
    double link_bandwidth_mbps = 0.0; ///< sustained host<->device bandwidth

    /// One host->device (or device->host) transfer of m bytes, seconds.
    [[nodiscard]] double transfer_seconds(std::size_t m_bytes) const noexcept;
};

/// GPU-era accelerator roster (P100/V100/A100-class HBM devices), in
/// generation order.  Parameters are sustained figures from vendor
/// documentation: FP64 dgemm ceilings, measured-class HBM STREAM rates, and
/// PCIe gen3/gen4 effective host-link bandwidths.
[[nodiscard]] const std::vector<AcceleratorModel>& accelerator_roster();

} // namespace machine
