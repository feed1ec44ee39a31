// Scalar tier registration + the non-inline transcendental references.
//
// This TU is compiled with -ffp-contract=off (see src/nn/CMakeLists.txt):
// under DG_NATIVE_ARCH=ON the global flags would otherwise let the compiler
// contract the mul+add chains in vec_scalar.h into FMAs and fork the scalar
// reference from the avx2 tier. exp_ref/tanh_ref/sigmoid_ref are defined
// here (and only here) so every caller in every TU shares one set of bits.
#include "nn/simd/vec.h"
#include "nn/simd/vec_scalar.h"

namespace dg::nn::simd {

float exp_ref(float x) { return scalar_impl::exp_eval(x); }
float tanh_ref(float x) { return scalar_impl::tanh_eval(x); }
float sigmoid_ref(float x) { return scalar_impl::sigmoid_eval(x); }

const KernelTable* scalar_table() {
  static const KernelTable table = {
      &scalar_impl::matmul_acc_rows, &scalar_impl::apply_ew,
      &scalar_impl::add_scalar,      &scalar_impl::mul_scalar,
      &scalar_impl::row_sum,         &scalar_impl::neg_row_max,
      &scalar_impl::transpose,
  };
  return &table;
}

}  // namespace dg::nn::simd
