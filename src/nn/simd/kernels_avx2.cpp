// AVX2 tier registration. Compiled with -mavx2 -ffp-contract=off on x86-64
// builds (the contract flag keeps the scalar tail loops in vec_avx2.h
// bit-identical to the scalar tier); the table is only ever installed after
// a CPUID check in dispatch.cpp, so building with -mavx2 is safe on hosts
// that cannot execute it. On non-x86 targets this TU is simply not listed
// and dispatch.cpp sees DG_SIMD_HAS_AVX2 undefined.
#include "nn/simd/vec.h"
#include "nn/simd/vec_avx2.h"

namespace dg::nn::simd {

#if defined(__AVX2__)
const KernelTable* avx2_table() {
  static const KernelTable table = {
      &avx2_impl::matmul_acc_rows,    &avx2_impl::matmul_nt_acc_rows,
      &avx2_impl::matmul_tn_acc_rows, &avx2_impl::apply_ew,
      &avx2_impl::add_scalar,         &avx2_impl::mul_scalar,
      &avx2_impl::row_sum,            &avx2_impl::neg_row_max,
      &avx2_impl::transpose,          &avx2_impl::box_muller,
      &avx2_impl::adam,
  };
  return &table;
}
#else
const KernelTable* avx2_table() { return nullptr; }
#endif

}  // namespace dg::nn::simd
