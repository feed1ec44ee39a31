#include "downstream/regressors.h"

#include <cmath>
#include <stdexcept>

#include "downstream/linalg.h"
#include "nn/layers.h"
#include "nn/optim.h"
#include "nn/rng.h"

namespace dg::downstream {

namespace {

using nn::Matrix;
using nn::Var;

Matrix with_bias_column(const Matrix& x) {
  Matrix out(x.rows(), x.cols() + 1, 1.0f);
  for (int i = 0; i < x.rows(); ++i) {
    for (int j = 0; j < x.cols(); ++j) out.at(i, j) = x.at(i, j);
  }
  return out;
}

class LinearRegression final : public Regressor {
 public:
  explicit LinearRegression(float ridge) : ridge_(ridge) {}

  void fit(const Matrix& x, const Matrix& y) override {
    const Matrix xb = with_bias_column(x);
    Matrix xtx = nn::matmul_tn(xb, xb);
    for (int i = 0; i < xtx.rows(); ++i) xtx.at(i, i) += ridge_;
    w_ = solve_spd(xtx, nn::matmul_tn(xb, y));
  }

  Matrix predict(const Matrix& x) const override {
    return nn::matmul(with_bias_column(x), w_);
  }

  std::string name() const override { return "LinearRegression"; }

 private:
  float ridge_;
  Matrix w_;  // [d+1, d_out]
};

class KernelRidge final : public Regressor {
 public:
  explicit KernelRidge(KernelRidgeOptions opt) : opt_(opt) {}

  void fit(const Matrix& x, const Matrix& y) override {
    train_x_ = x;
    Matrix k = kernel(x, x);
    for (int i = 0; i < k.rows(); ++i) k.at(i, i) += opt_.alpha;
    dual_ = solve_spd(k, y);
  }

  Matrix predict(const Matrix& x) const override {
    return nn::matmul(kernel(x, train_x_), dual_);
  }

  std::string name() const override { return "KernelRidge"; }

 private:
  Matrix kernel(const Matrix& a, const Matrix& b) const {
    const float scale = opt_.gamma / static_cast<float>(a.cols());
    Matrix k(a.rows(), b.rows());
    for (int i = 0; i < a.rows(); ++i) {
      for (int j = 0; j < b.rows(); ++j) {
        double d = 0.0;
        for (int c = 0; c < a.cols(); ++c) {
          const double dlt = a.at(i, c) - b.at(j, c);
          d += dlt * dlt;
        }
        k.at(i, j) = std::exp(-scale * static_cast<float>(d));
      }
    }
    return k;
  }

  KernelRidgeOptions opt_;
  Matrix train_x_;
  Matrix dual_;  // [n_train, d_out]
};

class MlpRegressor final : public Regressor {
 public:
  explicit MlpRegressor(MlpRegressorOptions opt) : opt_(std::move(opt)) {}

  void fit(const Matrix& x, const Matrix& y) override {
    nn::Rng rng(opt_.seed + 404);
    net_ = nn::Mlp(x.cols(), y.cols(), opt_.hidden_units, opt_.hidden_layers, rng);
    nn::Adam adam(net_.parameters(), {.lr = opt_.lr});
    const int n = x.rows();
    const int bs = std::min(opt_.batch, n);
    for (int e = 0; e < opt_.epochs; ++e) {
      auto perm = rng.permutation(n);
      for (int start = 0; start + bs <= n; start += bs) {
        Matrix xb(bs, x.cols()), yb(bs, y.cols());
        for (int i = 0; i < bs; ++i) {
          const int r = perm[static_cast<size_t>(start + i)];
          for (int j = 0; j < x.cols(); ++j) xb.at(i, j) = x.at(r, j);
          for (int j = 0; j < y.cols(); ++j) yb.at(i, j) = y.at(r, j);
        }
        Var loss = nn::mse_loss(net_.forward(Var(std::move(xb), false)), yb);
        adam.zero_grad();
        loss.backward();
        adam.step();
      }
    }
  }

  Matrix predict(const Matrix& x) const override {
    nn::NoGradGuard guard;
    return net_.forward(Var(x, false)).value();
  }

  std::string name() const override { return opt_.display_name; }

 private:
  MlpRegressorOptions opt_;
  nn::Mlp net_;
};

}  // namespace

std::unique_ptr<Regressor> make_linear_regression(float ridge) {
  return std::make_unique<LinearRegression>(ridge);
}

std::unique_ptr<Regressor> make_kernel_ridge(KernelRidgeOptions opt) {
  return std::make_unique<KernelRidge>(opt);
}

std::unique_ptr<Regressor> make_mlp_regressor(MlpRegressorOptions opt) {
  return std::make_unique<MlpRegressor>(std::move(opt));
}

double r2_score(const nn::Matrix& truth, const nn::Matrix& pred) {
  if (!truth.same_shape(pred) || truth.rows() < 2) {
    throw std::invalid_argument("r2_score: shape mismatch or too few rows");
  }
  double total = 0.0;
  for (int j = 0; j < truth.cols(); ++j) {
    double mu = 0.0;
    for (int i = 0; i < truth.rows(); ++i) mu += truth.at(i, j);
    mu /= truth.rows();
    double ss_res = 0.0, ss_tot = 0.0;
    for (int i = 0; i < truth.rows(); ++i) {
      ss_res += (truth.at(i, j) - pred.at(i, j)) * (truth.at(i, j) - pred.at(i, j));
      ss_tot += (truth.at(i, j) - mu) * (truth.at(i, j) - mu);
    }
    total += ss_tot > 1e-12 ? 1.0 - ss_res / ss_tot : (ss_res < 1e-12 ? 1.0 : 0.0);
  }
  return total / truth.cols();
}

}  // namespace dg::downstream
