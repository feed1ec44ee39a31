// Scalar tier registration + the non-inline transcendental references.
//
// This TU is compiled with -ffp-contract=off (see src/nn/CMakeLists.txt):
// under DG_NATIVE_ARCH=ON the global flags would otherwise let the compiler
// contract the mul+add chains in vec_scalar.h into FMAs and fork the scalar
// reference from the avx2 tier. The *_ref functions are defined here (and
// only here) so every caller in every TU shares one set of bits.
#include "nn/simd/vec.h"
#include "nn/simd/vec_scalar.h"

namespace dg::nn::simd {

float exp_ref(float x) { return scalar_impl::exp_eval(x); }
float tanh_ref(float x) { return scalar_impl::tanh_eval(x); }
float sigmoid_ref(float x) { return scalar_impl::sigmoid_eval(x); }
float log_ref(float x) { return scalar_impl::log_eval(x); }
double log_f64_ref(double x) { return scalar_impl::log_f64(x); }
void sincos_f64_ref(double x, double& sin_x, double& cos_x) {
  scalar_impl::sincos_f64(x, sin_x, cos_x);
}
void box_muller_ref(const double* u, double* z) {
  scalar_impl::box_muller(u, z, 1);
}

const KernelTable* scalar_table() {
  static const KernelTable table = {
      &scalar_impl::matmul_acc_rows,    &scalar_impl::matmul_nt_acc_rows,
      &scalar_impl::matmul_tn_acc_rows, &scalar_impl::apply_ew,
      &scalar_impl::add_scalar,         &scalar_impl::mul_scalar,
      &scalar_impl::row_sum,            &scalar_impl::neg_row_max,
      &scalar_impl::transpose,          &scalar_impl::box_muller,
      &scalar_impl::adam,
  };
  return &table;
}

}  // namespace dg::nn::simd
