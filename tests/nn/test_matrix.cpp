#include "nn/matrix.h"

#include <gtest/gtest.h>

#include <stdexcept>

namespace dg::nn {
namespace {

TEST(Matrix, ConstructionAndShape) {
  Matrix m(3, 4, 2.5f);
  EXPECT_EQ(m.rows(), 3);
  EXPECT_EQ(m.cols(), 4);
  EXPECT_EQ(m.size(), 12u);
  EXPECT_FLOAT_EQ(m.at(2, 3), 2.5f);
  m.at(1, 2) = -1.0f;
  EXPECT_FLOAT_EQ(m.at(1, 2), -1.0f);
}

TEST(Matrix, DefaultIsEmpty) {
  Matrix m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.rows(), 0);
}

TEST(Matrix, FromNestedList) {
  Matrix m = Matrix::from({{1, 2, 3}, {4, 5, 6}});
  EXPECT_EQ(m.rows(), 2);
  EXPECT_EQ(m.cols(), 3);
  EXPECT_FLOAT_EQ(m.at(1, 2), 6.0f);
}

TEST(Matrix, FromRaggedThrows) {
  EXPECT_THROW(Matrix::from({{1, 2}, {3}}), std::invalid_argument);
}

TEST(Matrix, RowVector) {
  Matrix m = Matrix::row({1.f, 2.f, 3.f});
  EXPECT_EQ(m.rows(), 1);
  EXPECT_EQ(m.cols(), 3);
  EXPECT_FLOAT_EQ(m.at(0, 1), 2.f);
}

TEST(Matrix, RowFromSpan) {
  const std::vector<float> v{4.f, 5.f, 6.f};
  Matrix m = Matrix::row(std::span<const float>(v));
  EXPECT_EQ(m.rows(), 1);
  EXPECT_EQ(m.cols(), 3);
  EXPECT_FLOAT_EQ(m.at(0, 2), 6.f);
}

TEST(Matrix, MatmulSkipsZeros) {
  // The i-k-j kernel short-circuits zero entries; results must be identical.
  Matrix a = Matrix::from({{0, 2}, {3, 0}});
  Matrix b = Matrix::from({{5, 6}, {7, 8}});
  EXPECT_TRUE(allclose(matmul(a, b), Matrix::from({{14, 16}, {15, 18}})));
}

TEST(Matrix, MatmulKnownValues) {
  Matrix a = Matrix::from({{1, 2}, {3, 4}});
  Matrix b = Matrix::from({{5, 6}, {7, 8}});
  Matrix c = matmul(a, b);
  EXPECT_TRUE(allclose(c, Matrix::from({{19, 22}, {43, 50}})));
}

TEST(Matrix, MatmulRectangular) {
  Matrix a = Matrix::from({{1, 0, 2}});       // 1x3
  Matrix b = Matrix::from({{1}, {2}, {3}});   // 3x1
  Matrix c = matmul(a, b);
  EXPECT_EQ(c.rows(), 1);
  EXPECT_EQ(c.cols(), 1);
  EXPECT_FLOAT_EQ(c.at(0, 0), 7.0f);
}

TEST(Matrix, MatmulShapeMismatchThrows) {
  Matrix a(2, 3), b(2, 3);
  EXPECT_THROW(matmul(a, b), std::invalid_argument);
}

TEST(Matrix, Transpose) {
  Matrix a = Matrix::from({{1, 2, 3}, {4, 5, 6}});
  Matrix t = transpose(a);
  EXPECT_EQ(t.rows(), 3);
  EXPECT_EQ(t.cols(), 2);
  EXPECT_FLOAT_EQ(t.at(2, 1), 6.0f);
  EXPECT_TRUE(allclose(transpose(t), a));
}

TEST(Matrix, ElementwiseOps) {
  Matrix a = Matrix::from({{1, 2}, {3, 4}});
  Matrix b = Matrix::from({{2, 2}, {2, 2}});
  EXPECT_TRUE(allclose(add(a, b), Matrix::from({{3, 4}, {5, 6}})));
  EXPECT_TRUE(allclose(sub(a, b), Matrix::from({{-1, 0}, {1, 2}})));
  EXPECT_TRUE(allclose(mul(a, b), Matrix::from({{2, 4}, {6, 8}})));
  EXPECT_TRUE(allclose(div(a, b), Matrix::from({{0.5, 1}, {1.5, 2}})));
  EXPECT_TRUE(allclose(add_scalar(a, 1.f), Matrix::from({{2, 3}, {4, 5}})));
  EXPECT_TRUE(allclose(mul_scalar(a, -1.f), Matrix::from({{-1, -2}, {-3, -4}})));
}

TEST(Matrix, ElementwiseShapeMismatchThrows) {
  Matrix a(2, 2), b(2, 3);
  EXPECT_THROW(add(a, b), std::invalid_argument);
  EXPECT_THROW(mul(a, b), std::invalid_argument);
}

TEST(Matrix, Broadcasts) {
  Matrix x = Matrix::from({{1, 2}, {3, 4}});
  Matrix rowv = Matrix::row({10.f, 20.f});
  EXPECT_TRUE(allclose(add_rowvec(x, rowv), Matrix::from({{11, 22}, {13, 24}})));
  EXPECT_TRUE(allclose(mul_rowvec(x, rowv), Matrix::from({{10, 40}, {30, 80}})));
  Matrix colv = Matrix::from({{2}, {3}});
  EXPECT_TRUE(allclose(mul_colvec(x, colv), Matrix::from({{2, 4}, {9, 12}})));
}

TEST(Matrix, BroadcastShapeChecks) {
  Matrix x(2, 2);
  EXPECT_THROW(add_rowvec(x, Matrix(1, 3)), std::invalid_argument);
  EXPECT_THROW(mul_colvec(x, Matrix(3, 1)), std::invalid_argument);
  EXPECT_THROW(mul_rowvec(x, Matrix(2, 2)), std::invalid_argument);
}

TEST(Matrix, Reductions) {
  Matrix a = Matrix::from({{1, 2}, {3, 4}});
  EXPECT_TRUE(allclose(row_sum(a), Matrix::from({{3}, {7}})));
  EXPECT_TRUE(allclose(col_sum(a), Matrix::from({{4, 6}})));
  EXPECT_FLOAT_EQ(sum(a), 10.0f);
  EXPECT_FLOAT_EQ(mean(a), 2.5f);
}

TEST(Matrix, MeanOfEmptyIsZero) {
  EXPECT_FLOAT_EQ(mean(Matrix{}), 0.0f);
}

TEST(Matrix, ConcatAndSlice) {
  Matrix a = Matrix::from({{1, 2}, {3, 4}});
  Matrix b = Matrix::from({{5}, {6}});
  const Matrix* cols[] = {&a, &b};
  Matrix c = concat_cols(cols);
  EXPECT_TRUE(allclose(c, Matrix::from({{1, 2, 5}, {3, 4, 6}})));
  EXPECT_TRUE(allclose(slice_cols(c, 2, 3), b));
  EXPECT_TRUE(allclose(slice_cols(c, 0, 2), a));

  Matrix d = Matrix::from({{7, 8}});
  const Matrix* rows[] = {&a, &d};
  Matrix e = concat_rows(rows);
  EXPECT_TRUE(allclose(e, Matrix::from({{1, 2}, {3, 4}, {7, 8}})));
  EXPECT_TRUE(allclose(slice_rows(e, 2, 3), d));
}

TEST(Matrix, SliceBadRangeThrows) {
  Matrix a(2, 2);
  EXPECT_THROW(slice_cols(a, 0, 3), std::invalid_argument);
  EXPECT_THROW(slice_rows(a, -1, 1), std::invalid_argument);
}

TEST(Matrix, Allclose) {
  Matrix a = Matrix::from({{1, 2}});
  Matrix b = Matrix::from({{1.00001f, 2.00001f}});
  EXPECT_TRUE(allclose(a, b, 1e-3f));
  EXPECT_FALSE(allclose(a, b, 1e-7f));
  EXPECT_FALSE(allclose(a, Matrix(2, 1)));
}

}  // namespace
}  // namespace dg::nn
