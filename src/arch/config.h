/**
 * @file
 * F1 hardware configuration and timing model (paper §3, §6).
 *
 * Defaults match the evaluated F1 implementation: 16 compute clusters
 * (1 NTT, 1 automorphism, 2 multiplier, 2 adder FUs + a 512 KB banked
 * register file each), a 64 MB scratchpad in 16 banks, three 16x16
 * 512-byte bit-sliced crossbars, and two HBM2 PHYs at 512 GB/s each.
 * Logic runs at 1 GHz; memories are double-pumped at 2 GHz.
 *
 * All FUs are fully pipelined at E = 128 lanes: an RVec of N elements
 * occupies its FU for G = N/E issue cycles; latencies below are the
 * additional pipeline depths.
 */
#ifndef F1_ARCH_CONFIG_H
#define F1_ARCH_CONFIG_H

#include <cstdint>

#include "common/bits.h"
#include "isa/isa.h"

namespace f1 {

struct F1Config
{
    uint32_t lanes = 128;
    uint32_t clusters = 16;
    uint32_t nttPerCluster = 1;
    uint32_t autPerCluster = 1;
    uint32_t mulPerCluster = 2;
    uint32_t addPerCluster = 2;
    uint32_t regFileKB = 512;
    uint32_t scratchBanks = 16;
    uint32_t bankMB = 4;
    uint32_t hbmPhys = 2;
    double hbmGBsPerPhy = 512.0;
    double freqGHz = 1.0;
    uint32_t portBytes = 512;      //!< NoC/bank port width per cycle
    uint32_t hbmLatency = 100;     //!< worst-case load latency (§3)

    /**
     * Sensitivity knobs (paper §8.3 / Table 5): replace the single
     * high-throughput NTT/automorphism FU with `divisor` units of
     * 1/divisor throughput each (same aggregate throughput).
     */
    uint32_t lowThroughputNttDivisor = 1;
    uint32_t lowThroughputAutDivisor = 1;

    size_t scratchBytes() const
    {
        return (size_t)scratchBanks * bankMB * 1024 * 1024;
    }
    size_t regFileBytes() const { return (size_t)regFileKB * 1024; }

    /** Aggregate HBM bytes per cycle at the logic clock. */
    double
    hbmBytesPerCycle() const
    {
        return hbmPhys * hbmGBsPerPhy / freqGHz;
    }

    uint32_t
    fuCount(FuType t) const
    {
        switch (t) {
          case FuType::kNtt:
            return nttPerCluster * lowThroughputNttDivisor;
          case FuType::kAut:
            return autPerCluster * lowThroughputAutDivisor;
          case FuType::kMul:
            return mulPerCluster;
          case FuType::kAdd:
            return addPerCluster;
        }
        return 0;
    }

    /** Issue-port occupancy of one RVec op on one FU, in cycles. */
    uint32_t
    occupancy(FuType t, uint32_t n) const
    {
        uint32_t g = ceilDiv(n, lanes);
        switch (t) {
          case FuType::kNtt:
            return g * lowThroughputNttDivisor;
          case FuType::kAut:
            return g * lowThroughputAutDivisor;
          default:
            return g;
        }
    }

    /** Total latency (issue to result available), in cycles. */
    uint32_t
    latency(Opcode op, uint32_t n) const
    {
        const uint32_t g = ceilDiv(n, lanes);
        switch (fuFor(op)) {
          case FuType::kAdd:
            return g + 1;
          case FuType::kMul:
            return g + 4; // pipelined modular-multiplier depth
          case FuType::kNtt:
            // Four-step pipeline: two E-point NTT passes around a
            // transpose; the transpose buffers a full E x G tile.
            return (2 * g + lanes + 12) * lowThroughputNttDivisor;
          case FuType::kAut:
            // Column permute, quadrant-swap transpose (fills E/2
            // rows), row permute, reverse transpose.
            return (g + lanes + 6) * lowThroughputAutDivisor;
        }
        return g;
    }

    /** Cycles for one RVec through a 512-byte port. */
    uint32_t
    portCycles(uint32_t n) const
    {
        return ceilDiv((uint64_t)n * 4, portBytes);
    }

    /** Register-file capacity in RVec slots. */
    uint32_t
    regFileSlots(uint32_t n) const
    {
        return static_cast<uint32_t>(regFileBytes() / ((size_t)n * 4));
    }

    /** Scratchpad capacity in RVec slots. */
    uint32_t
    scratchSlots(uint32_t n) const
    {
        return static_cast<uint32_t>(scratchBytes() / ((size_t)n * 4));
    }
};

} // namespace f1

#endif // F1_ARCH_CONFIG_H
