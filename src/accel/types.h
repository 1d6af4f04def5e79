#ifndef ACCELFLOW_ACCEL_TYPES_H_
#define ACCELFLOW_ACCEL_TYPES_H_

#include <array>
#include <cstdint>
#include <string_view>

#include "mem/address.h"
#include "sim/time.h"

/**
 * @file
 * Shared vocabulary for the accelerator ensemble: the nine datacenter-tax
 * accelerator types (Section III), their literature speedups (Section VI),
 * data formats visible to the Data Transform Engine, and the payload
 * descriptor that travels between accelerators.
 */

namespace accelflow::accel {

/** The nine on-package accelerators modeled by the paper. */
enum class AccelType : std::uint8_t {
  kTcp = 0,   ///< F4T full-stack TCP.
  kEncr = 1,  ///< QTLS encryption.
  kDecr = 2,  ///< QTLS decryption.
  kRpc = 3,   ///< Cerebros RPC processing.
  kSer = 4,   ///< ProtoAcc serialization.
  kDser = 5,  ///< ProtoAcc deserialization.
  kCmp = 6,   ///< CDPU compression.
  kDcmp = 7,  ///< CDPU decompression.
  kLdb = 8,   ///< Intel DLB load balancing.
};

inline constexpr std::size_t kNumAccelTypes = 9;

constexpr std::size_t index_of(AccelType t) {
  return static_cast<std::size_t>(t);
}

constexpr std::string_view name_of(AccelType t) {
  constexpr std::string_view kNames[kNumAccelTypes] = {
      "TCP", "Encr", "Decr", "RPC", "Ser", "Dser", "Cmp", "Dcmp", "LdB"};
  return kNames[index_of(t)];
}

/** All types, for iteration. */
inline constexpr std::array<AccelType, kNumAccelTypes> kAllAccelTypes = {
    AccelType::kTcp,  AccelType::kEncr, AccelType::kDecr,
    AccelType::kRpc,  AccelType::kSer,  AccelType::kDser,
    AccelType::kCmp,  AccelType::kDcmp, AccelType::kLdb};

/**
 * Average speedup S of each accelerator over a CPU core, from the source
 * papers (Section VI): the accelerator performs a computation that takes C
 * cycles on a core in C/S cycles.
 */
constexpr double default_speedup(AccelType t) {
  constexpr double kSpeedups[kNumAccelTypes] = {
      3.5,   // TCP (F4T)
      6.6,   // Encr (QTLS)
      6.6,   // Decr (QTLS)
      20.5,  // RPC (Cerebros)
      3.8,   // Ser (ProtoAcc)
      3.8,   // Dser (ProtoAcc)
      15.2,  // Cmp (CDPU compression)
      4.1,   // Dcmp (CDPU decompression)
      8.1,   // LdB (Intel DLB)
  };
  return kSpeedups[index_of(t)];
}

/** Wire/application data formats the Data Transform Engine converts. */
enum class DataFormat : std::uint8_t {
  kString = 0,
  kJson = 1,
  kBson = 2,
  kProtoWire = 3,
};

inline constexpr std::size_t kNumDataFormats = 4;

constexpr std::string_view name_of(DataFormat f) {
  constexpr std::string_view kNames[kNumDataFormats] = {"string", "JSON",
                                                        "BSON", "proto"};
  return kNames[static_cast<std::size_t>(f)];
}

/** Tenant (VM) identifier for fine-grained virtualization (Section IV-D). */
using TenantId = std::uint32_t;

/** End-to-end request identifier. */
using RequestId = std::uint64_t;

/**
 * Payload condition bits that branch conditions test (Section IV-B).
 * In hardware they are fields in the message, which the output dispatcher
 * reads with simple loads and compares. The model samples them once per
 * chain (core::ChainContext::flags), and every orchestrator reads them
 * there.
 */
struct PayloadFlags {
  bool compressed = false;    ///< Payload needs decompression (T1, T5...).
  bool hit = false;           ///< DB-cache read hit (T5).
  bool found = false;         ///< DB read found the key (T6).
  bool exception = false;     ///< Remote reported an error (T7, T10).
  bool c_compressed = false;  ///< DB cache stores compressed values (T6).
};

/** Descriptor of the data an accelerator operates on. */
struct Payload {
  std::uint64_t size_bytes = 0;
  mem::VirtAddr va = 0;  ///< Backing buffer (used when > inline capacity).
};

/** Inline data capacity of a queue entry (Section IV-A). */
inline constexpr std::uint64_t kInlineDataBytes = 2048;

}  // namespace accelflow::accel

#endif  // ACCELFLOW_ACCEL_TYPES_H_
