#ifndef ACCELFLOW_MEM_ADDRESS_H_
#define ACCELFLOW_MEM_ADDRESS_H_

#include <cstdint>

/**
 * @file
 * Virtual/physical address types shared by the memory models.
 *
 * Cores and accelerators share one virtual address space (Intel SVM-style,
 * Section II of the paper); accelerators translate through the IOMMU via
 * PCIe ATS and cache results in per-accelerator TLBs.
 */

namespace accelflow::mem {

using VirtAddr = std::uint64_t;
using PhysAddr = std::uint64_t;
using PageNum = std::uint64_t;

inline constexpr std::uint64_t kPageSize = 4096;
inline constexpr unsigned kPageShift = 12;

constexpr PageNum page_of(VirtAddr va) { return va >> kPageShift; }
constexpr VirtAddr page_base(PageNum vpn) { return vpn << kPageShift; }

/** Number of pages touched by a [va, va+bytes) access. */
constexpr std::uint64_t pages_spanned(VirtAddr va, std::uint64_t bytes) {
  if (bytes == 0) return 0;
  return page_of(va + bytes - 1) - page_of(va) + 1;
}

/**
 * Bump allocator handing out virtual buffer addresses for a process.
 *
 * The simulator does not store payload bytes; it only needs realistic,
 * non-overlapping address streams so TLB and page-walk behaviour is
 * meaningful. Each process (tenant) gets a disjoint region.
 */
class AddressSpace {
 public:
  /** @param process_id placed in the top address bits to disjoin tenants. */
  explicit AddressSpace(std::uint32_t process_id)
      : next_(static_cast<VirtAddr>(process_id) << 40 | 0x10000) {}

  /** Allocates a page-aligned buffer of at least `bytes`. */
  VirtAddr allocate(std::uint64_t bytes) {
    const VirtAddr va = next_;
    const std::uint64_t pages = (bytes + kPageSize - 1) / kPageSize;
    next_ += pages * kPageSize;
    return va;
  }

 private:
  VirtAddr next_;
};

}  // namespace accelflow::mem

#endif  // ACCELFLOW_MEM_ADDRESS_H_
