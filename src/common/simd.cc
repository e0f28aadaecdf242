#include "common/simd.h"

#if defined(RFIDCLEAN_SIMD_OFF) || !defined(__x86_64__)
#define RFIDCLEAN_SIMD_ENABLED 0
#else
#define RFIDCLEAN_SIMD_ENABLED 1
#endif

namespace rfidclean::simd {

namespace internal {

#if RFIDCLEAN_SIMD_ENABLED
const bool g_cpu_vector_ok = __builtin_cpu_supports("avx2");
#else
const bool g_cpu_vector_ok = false;
#endif
bool g_force_scalar = false;

double BlockedSumScalar(const double* x, std::size_t n) {
  return BlockedSum4(x, n);
}

void DivideInPlaceScalar(double* x, std::size_t n, double divisor) {
  for (std::size_t i = 0; i < n; ++i) x[i] /= divisor;
}

void GatherProductsScalar(const double* values, std::size_t value_stride,
                          const std::int32_t* indices,
                          std::size_t index_stride, const double* table,
                          std::size_t table_stride, std::size_t n,
                          double* out) {
  for (std::size_t k = 0; k < n; ++k) {
    out[k] =
        values[k * value_stride] *
        table[static_cast<std::size_t>(indices[k * index_stride]) *
              table_stride];
  }
}

ProbeGroupMasks ScanProbeGroupScalar(const std::int32_t* slots,
                                     const std::size_t* hashes,
                                     std::size_t target_hash) {
  ProbeGroupMasks masks;
  for (std::size_t j = 0; j < kProbeGroupWidth; ++j) {
    const std::int32_t id = slots[j];
    if (id < 0) {
      masks.empty |= 1u << j;
    } else if (hashes[static_cast<std::size_t>(id)] == target_hash) {
      masks.match |= 1u << j;
    }
  }
  return masks;
}

}  // namespace internal

bool VectorKernelsBuilt() { return RFIDCLEAN_SIMD_ENABLED != 0; }

void ForceScalarForTesting(bool force) { internal::g_force_scalar = force; }

double BlockedSum(const double* x, std::size_t n) {
#if RFIDCLEAN_SIMD_ENABLED
  if (VectorKernelsActive()) return internal::BlockedSumAvx2(x, n);
#endif
  return internal::BlockedSumScalar(x, n);
}

void DivideInPlace(double* x, std::size_t n, double divisor) {
#if RFIDCLEAN_SIMD_ENABLED
  if (VectorKernelsActive()) {
    internal::DivideInPlaceAvx2(x, n, divisor);
    return;
  }
#endif
  internal::DivideInPlaceScalar(x, n, divisor);
}

void GatherProducts(const double* values, std::size_t value_stride,
                    const std::int32_t* indices, std::size_t index_stride,
                    const double* table, std::size_t table_stride,
                    std::size_t n, double* out) {
#if RFIDCLEAN_SIMD_ENABLED
  if (VectorKernelsActive()) {
    internal::GatherProductsAvx2(values, value_stride, indices, index_stride,
                                 table, table_stride, n, out);
    return;
  }
#endif
  internal::GatherProductsScalar(values, value_stride, indices, index_stride,
                                 table, table_stride, n, out);
}

ProbeGroupMasks ScanProbeGroup(const std::int32_t* slots,
                               const std::size_t* hashes,
                               std::size_t target_hash) {
#if RFIDCLEAN_SIMD_ENABLED
  if (VectorKernelsActive()) {
    return internal::ScanProbeGroupAvx2(slots, hashes, target_hash);
  }
#endif
  return internal::ScanProbeGroupScalar(slots, hashes, target_hash);
}

}  // namespace rfidclean::simd
