#include "analysis/registry.h"

#include <utility>

namespace dg::analysis {

const char* to_string(DiffClass c) {
  switch (c) {
    case DiffClass::kDoubleBackward: return "double-backward";
    case DiffClass::kZeroCurvature: return "zero-curvature";
    case DiffClass::kFirstOrderOnly: return "first-order-only";
  }
  return "?";
}

const char* to_string(SimdClass c) {
  switch (c) {
    case SimdClass::kBitExact: return "bit-exact";
    case SimdClass::kUlpBounded: return "ulp-bounded";
  }
  return "?";
}

const char* to_string(DetClass c) {
  switch (c) {
    case DetClass::kOrderFree: return "order-free";
    case DetClass::kOrderedReduction: return "ordered-reduction";
    case DetClass::kAccumulating: return "accumulating";
  }
  return "?";
}

const OpInfo* OpRegistry::find(std::string_view name) const {
  auto it = ops_.find(name);
  return it == ops_.end() ? nullptr : &it->second;
}

void OpRegistry::add(OpInfo info) {
  ops_.insert_or_assign(info.name, std::move(info));
}

std::vector<std::string> OpRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(ops_.size());
  for (const auto& [name, info] : ops_) out.push_back(name);
  return out;
}

namespace {

ShapeResult same_shape_binary(std::span<const Shape> in, const OpAttrs&) {
  if (in[0] != in[1]) {
    return ShapeResult::fail("elementwise operands disagree: " + in[0].str() +
                             " vs " + in[1].str());
  }
  return ShapeResult::ok(in[0]);
}

ShapeResult pass_through(std::span<const Shape> in, const OpAttrs&) {
  return ShapeResult::ok(in[0]);
}

ShapeResult from_attrs(std::span<const Shape>, const OpAttrs& attrs) {
  return ShapeResult::ok({attrs.rows, attrs.cols});
}

/// "x" + s.str() without GCC 12's spurious -Wrestrict on a short literal
/// prepended to a temporary string.
std::string named(const char* name, const Shape& s) {
  std::string out = name;
  out += s.str();
  return out;
}

/// Bounds-checks a [i0, i1) range against a total extent (when concrete).
std::string check_range(int i0, int i1, const Dim& total, const char* axis) {
  if (i0 < 0 || i1 < i0) {
    return std::string("bad ") + axis + " range [" + std::to_string(i0) +
           ", " + std::to_string(i1) + ")";
  }
  if (total.concrete() && i1 > total.value) {
    return std::string(axis) + " range [" + std::to_string(i0) + ", " +
           std::to_string(i1) + ") exceeds extent " + total.str();
  }
  return {};
}

OpRegistry make_builtin() {
  OpRegistry r;
  const DetClass kFree = DetClass::kOrderFree;
  const DetClass kRed = DetClass::kOrderedReduction;
  const auto op = [&r](const char* name, int min_arity, int max_arity,
                       Broadcast broadcast, DetClass det, ShapeRule shape,
                       DiffClass diff = DiffClass::kDoubleBackward,
                       SimdClass simd = SimdClass::kBitExact, int ulp = 0) {
    OpInfo info;
    info.name = name;
    info.min_arity = min_arity;
    info.max_arity = max_arity;
    info.diff = diff;
    info.broadcast = broadcast;
    info.shape = std::move(shape);
    info.simd = simd;
    info.ulp_bound = ulp;
    info.det = det;
    r.add(std::move(info));
  };
  const auto elementwise_unary = [&](const char* name, DiffClass diff) {
    op(name, 1, 1, Broadcast::kNone, kFree, pass_through, diff);
  };
  const auto elementwise_binary = [&](const char* name) {
    op(name, 2, 2, Broadcast::kNone, kFree, same_shape_binary);
  };
  const auto ulp_bounded_unary = [&](const char* name, int ulp) {
    op(name, 1, 1, Broadcast::kNone, kFree, pass_through,
       DiffClass::kDoubleBackward, SimdClass::kUlpBounded, ulp);
  };

  // ---- graph leaves (no parents; shape comes from the call site). The
  // "grad" slot is the engine's read-modify-write accumulation target — the
  // one kAccumulating site ----
  op("leaf", 0, 0, Broadcast::kNone, kFree, from_attrs);
  op("constant", 0, 0, Broadcast::kNone, kFree, from_attrs);
  op("grad", 0, 0, Broadcast::kNone, DetClass::kAccumulating, from_attrs);

  // ---- elementwise ----
  elementwise_binary("add");
  elementwise_binary("sub");
  elementwise_binary("mul");
  elementwise_binary("div");
  elementwise_unary("neg", DiffClass::kDoubleBackward);
  elementwise_unary("add_scalar", DiffClass::kDoubleBackward);
  elementwise_unary("mul_scalar", DiffClass::kDoubleBackward);
  elementwise_unary("recip", DiffClass::kDoubleBackward);

  // ---- nonlinearities ----
  // relu/abs backprop through a locally-constant mask captured as data:
  // correct under the gradient penalty (zero curvature), flagged distinctly
  // so the audit trail records the reasoning.
  elementwise_unary("relu", DiffClass::kZeroCurvature);
  elementwise_unary("abs", DiffClass::kZeroCurvature);
  // The polynomial transcendentals (nn/simd/vec.h) are shared verbatim by
  // the scalar and avx2 tiers, so cross-tier output is still bit-identical;
  // the pinned bound is their worst-case ULP error vs libm on the supported
  // domain (measured 1/1/2 on [-87, 88]; pinned with headroom).
  ulp_bounded_unary("tanh", 2);
  ulp_bounded_unary("sigmoid", 3);
  ulp_bounded_unary("exp", 2);
  elementwise_unary("log", DiffClass::kDoubleBackward);
  elementwise_unary("sqrt", DiffClass::kDoubleBackward);
  elementwise_unary("square", DiffClass::kDoubleBackward);

  // ---- linear algebra. The ordered reductions are every op that folds an
  // extent through floating-point adds; their kernels fix the summation
  // order by construction ----
  op("matmul", 2, 2, Broadcast::kNone, kRed,
     [](std::span<const Shape> in, const OpAttrs&) {
       if (in[0].cols != in[1].rows) {
         return ShapeResult::fail("inner dims disagree: " + in[0].str() +
                                  " x " + in[1].str());
       }
       return ShapeResult::ok({in[0].rows, in[1].cols});
     });
  op("transpose", 1, 1, Broadcast::kNone, kFree,
     [](std::span<const Shape> in, const OpAttrs&) {
       return ShapeResult::ok({in[0].cols, in[0].rows});
     });
  op("affine", 3, 3, Broadcast::kRowVector, kRed,
     [](std::span<const Shape> in, const OpAttrs&) {
       const Shape &x = in[0], &w = in[1], &b = in[2];
       if (x.cols != w.rows) {
         return ShapeResult::fail(named("x", x) + " does not feed w" +
                                  w.str());
       }
       if (b.rows != Dim::of(1) || b.cols != w.cols) {
         return ShapeResult::fail("bias " + b.str() + " is not [1, " +
                                  w.cols.str() + "]");
       }
       return ShapeResult::ok({x.rows, w.cols});
     });
  op("lstm_gates", 5, 5, Broadcast::kRowVector, kRed,
     [](std::span<const Shape> in, const OpAttrs&) {
       const Shape &x = in[0], &wx = in[1], &h = in[2], &wh = in[3],
                   &b = in[4];
       if (x.cols != wx.rows) {
         return ShapeResult::fail(named("x", x) + " does not feed wx" +
                                  wx.str());
       }
       if (h.cols != wh.rows) {
         return ShapeResult::fail(named("h", h) + " does not feed wh" +
                                  wh.str());
       }
       if (x.rows != h.rows) {
         return ShapeResult::fail(named("x", x) + " and h" + h.str() +
                                  " batch dims disagree");
       }
       if (wx.cols != wh.cols || b.rows != Dim::of(1) || b.cols != wx.cols) {
         return ShapeResult::fail("gate widths disagree: wx" + wx.str() +
                                  ", wh" + wh.str() + ", b" + b.str());
       }
       if (wh.rows.concrete() && wh.cols.concrete() &&
           wh.cols.value != 4 * wh.rows.value) {
         return ShapeResult::fail(named("wh", wh) +
                                  " is not [hidden, 4*hidden]");
       }
       return ShapeResult::ok({x.rows, wx.cols});
     });

  // ---- broadcasts ----
  const auto row_vector = [](std::span<const Shape> in, const OpAttrs&) {
    if (in[1].rows != Dim::of(1) || in[1].cols != in[0].cols) {
      return ShapeResult::fail("row vector " + in[1].str() +
                               " does not broadcast over " + in[0].str());
    }
    return ShapeResult::ok(in[0]);
  };
  const auto col_vector = [](std::span<const Shape> in, const OpAttrs&) {
    if (in[1].cols != Dim::of(1) || in[1].rows != in[0].rows) {
      return ShapeResult::fail("column vector " + in[1].str() +
                               " does not broadcast over " + in[0].str());
    }
    return ShapeResult::ok(in[0]);
  };
  op("add_rowvec", 2, 2, Broadcast::kRowVector, kFree, row_vector);
  op("mul_rowvec", 2, 2, Broadcast::kRowVector, kFree, row_vector);
  op("add_colvec", 2, 2, Broadcast::kColVector, kFree, col_vector);
  op("mul_colvec", 2, 2, Broadcast::kColVector, kFree, col_vector);
  op("broadcast_scalar", 1, 1, Broadcast::kScalar, kFree,
     [](std::span<const Shape> in, const OpAttrs& attrs) {
       if (in[0].rows != Dim::of(1) || in[0].cols != Dim::of(1)) {
         return ShapeResult::fail("input " + in[0].str() + " is not 1x1");
       }
       return ShapeResult::ok({attrs.rows, attrs.cols});
     });

  // ---- reductions ----
  op("row_sum", 1, 1, Broadcast::kNone, kRed,
     [](std::span<const Shape> in, const OpAttrs&) {
       return ShapeResult::ok({in[0].rows, Dim::of(1)});
     });
  op("col_sum", 1, 1, Broadcast::kNone, kRed,
     [](std::span<const Shape> in, const OpAttrs&) {
       return ShapeResult::ok({Dim::of(1), in[0].cols});
     });
  op("sum", 1, 1, Broadcast::kNone, kRed,
     [](std::span<const Shape>, const OpAttrs&) {
       return ShapeResult::ok({Dim::of(1), Dim::of(1)});
     });
  // The softmax shift: a row max folds no additions, so it is kOrderFree
  // (audit_registry exempts it from the vanishing-extent law). It has no
  // backward rule, so it never carries a gradient edge at any order.
  op("neg_row_max", 1, 1, Broadcast::kNone, kFree,
     [](std::span<const Shape> in, const OpAttrs&) {
       return ShapeResult::ok({in[0].rows, Dim::of(1)});
     });

  // ---- shape ops ----
  op("concat_cols", 1, -1, Broadcast::kNone, kFree,
     [](std::span<const Shape> in, const OpAttrs&) {
       Dim cols = Dim::of(0);
       for (const Shape& s : in) {
         if (s.rows != in[0].rows) {
           return ShapeResult::fail("row counts disagree: " + in[0].str() +
                                    " vs " + s.str());
         }
         cols = add_dims(cols, s.cols);
       }
       return ShapeResult::ok({in[0].rows, cols});
     });
  op("concat_rows", 1, -1, Broadcast::kNone, kFree,
     [](std::span<const Shape> in, const OpAttrs&) {
       Dim rows = Dim::of(0);
       for (const Shape& s : in) {
         if (s.cols != in[0].cols) {
           return ShapeResult::fail("column counts disagree: " +
                                    in[0].str() + " vs " + s.str());
         }
         rows = add_dims(rows, s.rows);
       }
       return ShapeResult::ok({rows, in[0].cols});
     });
  op("slice_cols", 1, 1, Broadcast::kNone, kFree,
     [](std::span<const Shape> in, const OpAttrs& attrs) {
       if (std::string err =
               check_range(attrs.i0, attrs.i1, in[0].cols, "column");
           !err.empty()) {
         return ShapeResult::fail(std::move(err));
       }
       return ShapeResult::ok({in[0].rows, Dim::of(attrs.i1 - attrs.i0)});
     });
  op("slice_rows", 1, 1, Broadcast::kNone, kFree,
     [](std::span<const Shape> in, const OpAttrs& attrs) {
       if (std::string err = check_range(attrs.i0, attrs.i1, in[0].rows, "row");
           !err.empty()) {
         return ShapeResult::fail(std::move(err));
       }
       return ShapeResult::ok({Dim::of(attrs.i1 - attrs.i0), in[0].cols});
     });
  op("pad_cols", 1, 1, Broadcast::kNone, kFree,
     [](std::span<const Shape> in, const OpAttrs& attrs) {
       if (attrs.i0 < 0 || attrs.i1 < 0) {
         return ShapeResult::fail("negative padding");
       }
       return ShapeResult::ok(
           {in[0].rows, add_dims(in[0].cols, Dim::of(attrs.i0 + attrs.i1))});
     });
  op("pad_rows", 1, 1, Broadcast::kNone, kFree,
     [](std::span<const Shape> in, const OpAttrs& attrs) {
       if (attrs.i0 < 0 || attrs.i1 < 0) {
         return ShapeResult::fail("negative padding");
       }
       return ShapeResult::ok(
           {add_dims(in[0].rows, Dim::of(attrs.i0 + attrs.i1)), in[0].cols});
     });
  return r;
}

}  // namespace

const OpRegistry& OpRegistry::builtin() {
  static const OpRegistry r = make_builtin();
  return r;
}

}  // namespace dg::analysis
