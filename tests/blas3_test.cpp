#include <gtest/gtest.h>

#include "blas3/call_shape.hpp"
#include "blas3/matrix.hpp"
#include "blas3/reference.hpp"
#include "blas3/routine.hpp"
#include "blas3/source_ir.hpp"
#include "ir/printer.hpp"
#include "ir/validate.hpp"
#include "support/rng.hpp"

namespace oa::blas3 {
namespace {

// ---------------------------------------------------------------- catalog

TEST(Catalog, Has24PaperVariantsAnd48Total) {
  EXPECT_EQ(paper_variants().size(), 24u);
  EXPECT_EQ(all_variants().size(), 48u);
  // The first 24 are the paper's f32 family, then the same shapes at f64.
  for (size_t i = 0; i < 24; ++i) {
    EXPECT_EQ(all_variants()[i].precision, Precision::kF32);
    EXPECT_EQ(all_variants()[i + 24].precision, Precision::kF64);
    EXPECT_EQ(all_variants()[i + 24].name(),
              "D" + all_variants()[i].name());
  }
}

TEST(Catalog, NamesMatchPaperStyle) {
  std::vector<std::string> names;
  for (const auto& v : all_variants()) names.push_back(v.name());
  EXPECT_NE(std::find(names.begin(), names.end(), "GEMM-NN"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "GEMM-TN"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "SYMM-LL"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "TRMM-LL-N"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "TRSM-LL-N"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "TRSM-RU-T"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "DGEMM-NN"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "DTRSM-LL-N"),
            names.end());
}

TEST(Catalog, NamesAreUnique) {
  std::set<std::string> names;
  for (const auto& v : all_variants()) {
    EXPECT_TRUE(names.insert(v.name()).second) << v.name();
  }
}

TEST(Catalog, FindVariantRoundTrips) {
  for (const auto& v : all_variants()) {
    const Variant* found = find_variant(v.name());
    ASSERT_NE(found, nullptr) << v.name();
    EXPECT_EQ(*found, v);
  }
  EXPECT_EQ(find_variant("GEMM-XX"), nullptr);
}

TEST(Catalog, NominalFlops) {
  Variant gemm = *find_variant("GEMM-NN");
  EXPECT_DOUBLE_EQ(nominal_flops(gemm, 64, 32, 16), 2.0 * 64 * 32 * 16);
  Variant symm = *find_variant("SYMM-LL");
  EXPECT_DOUBLE_EQ(nominal_flops(symm, 64, 32, 0), 2.0 * 64 * 32 * 64);
  Variant trsm = *find_variant("TRSM-RL-N");
  EXPECT_DOUBLE_EQ(nominal_flops(trsm, 64, 32, 0), 64.0 * 32 * 32);
}

// ----------------------------------------------------------------- matrix

TEST(MatrixHelper, TriangularZeroesBlank) {
  Rng rng(1);
  Matrix a(8, 8);
  a.fill_random(rng);
  a.make_triangular(Uplo::kLower);
  for (int64_t c = 0; c < 8; ++c) {
    for (int64_t r = 0; r < c; ++r) EXPECT_EQ(a.at(r, c), 0.0f);
  }
  EXPECT_NE(a.at(5, 2), 0.0f);
}

TEST(MatrixHelper, SymmetricMirror) {
  Rng rng(2);
  Matrix a(6, 6);
  a.fill_random(rng);
  a.make_symmetric_from(Uplo::kLower);
  for (int64_t c = 0; c < 6; ++c) {
    for (int64_t r = 0; r < 6; ++r) EXPECT_EQ(a.at(r, c), a.at(c, r));
  }
}

TEST(MatrixHelper, UnitDiagonal) {
  Matrix a(4, 4);
  a.set_unit_diagonal();
  for (int64_t i = 0; i < 4; ++i) EXPECT_EQ(a.at(i, i), 1.0f);
}

TEST(MatrixHelper, MaxAbsDiff) {
  Matrix a(2, 2), b(2, 2);
  b.set(1, 0, 0.5);
  EXPECT_FLOAT_EQ(max_abs_diff(a, b), 0.5f);
}

TEST(MatrixHelper, F32StorageRoundsOnSet) {
  Matrix s(1, 1, Precision::kF32);
  Matrix d(1, 1, Precision::kF64);
  const double v = 0.1;  // not representable in float
  s.set(0, 0, v);
  d.set(0, 0, v);
  EXPECT_EQ(s.at(0, 0), static_cast<double>(static_cast<float>(v)));
  EXPECT_EQ(d.at(0, 0), v);
  EXPECT_NE(s.at(0, 0), d.at(0, 0));
}

// ------------------------------------------------------------- references

constexpr int64_t kM = 13, kN = 9;

struct Problem {
  Matrix a, b, c;
};

Problem make_problem(const Variant& v, uint64_t seed) {
  Rng rng(seed);
  const int64_t dim = v.side == Side::kLeft ? kM : kN;
  Problem p;
  switch (v.family) {
    case Family::kGemm: {
      const int64_t kk = 7;
      p.a = Matrix(v.trans_a == Trans::kN ? kM : kk,
                   v.trans_a == Trans::kN ? kk : kM);
      p.b = Matrix(v.trans_b == Trans::kN ? kk : kN,
                   v.trans_b == Trans::kN ? kN : kk);
      break;
    }
    default:
      p.a = Matrix(dim, dim);
      p.b = Matrix(kM, kN);
      break;
  }
  p.a.fill_random(rng);
  p.b.fill_random(rng);
  if (v.family == Family::kTrmm || v.family == Family::kTrsm) {
    p.a.make_triangular(v.uplo);
  }
  if (v.family == Family::kTrsm) p.a.set_unit_diagonal();
  p.c = Matrix(kM, kN);
  return p;
}

TEST(Reference, GemmNnIdentity) {
  // A = I  =>  C = B.
  Variant v = *find_variant("GEMM-NN");
  Matrix a(4, 4);
  a.set_unit_diagonal();
  Rng rng(3);
  Matrix b(4, 5);
  b.fill_random(rng);
  Matrix c(4, 5);
  run_reference(v, a, b, &c);
  EXPECT_LT(max_abs_diff(c, b), 1e-6f);
}

TEST(Reference, GemmTransposesAgree) {
  // GEMM-TN with A' = A^T equals GEMM-NN with A.
  Rng rng(4);
  Matrix a(kM, 7), b(7, kN);
  a.fill_random(rng);
  b.fill_random(rng);
  Matrix at(7, kM);
  for (int64_t r = 0; r < kM; ++r) {
    for (int64_t c = 0; c < 7; ++c) at.set(c, r, a.at(r, c));
  }
  Matrix c1(kM, kN), c2(kM, kN);
  run_reference(*find_variant("GEMM-NN"), a, b, &c1);
  run_reference(*find_variant("GEMM-TN"), at, b, &c2);
  EXPECT_LT(max_abs_diff(c1, c2), 1e-5f);
}

TEST(Reference, GemmNtAgrees) {
  Rng rng(5);
  Matrix a(kM, 7), b(7, kN);
  a.fill_random(rng);
  b.fill_random(rng);
  Matrix bt(kN, 7);
  for (int64_t r = 0; r < 7; ++r) {
    for (int64_t c = 0; c < kN; ++c) bt.set(c, r, b.at(r, c));
  }
  Matrix c1(kM, kN), c2(kM, kN);
  run_reference(*find_variant("GEMM-NN"), a, b, &c1);
  run_reference(*find_variant("GEMM-NT"), a, bt, &c2);
  EXPECT_LT(max_abs_diff(c1, c2), 1e-5f);
}

class SymmVsGemm : public ::testing::TestWithParam<const char*> {};

TEST_P(SymmVsGemm, MatchesExplicitSymmetricGemm) {
  const Variant v = *find_variant(GetParam());
  Problem p = make_problem(v, 10);
  // Explicitly symmetrize A and compute with GEMM.
  Matrix full = p.a;
  full.make_symmetric_from(v.uplo);
  Matrix expected(kM, kN);
  if (v.side == Side::kLeft) {
    Variant g = *find_variant("GEMM-NN");
    run_reference(g, full, p.b, &expected);
  } else {
    Variant g = *find_variant("GEMM-NN");
    run_reference(g, p.b, full, &expected);
  }
  run_reference(v, p.a, p.b, &p.c);
  EXPECT_LT(max_abs_diff(p.c, expected), accumulation_tolerance(kM + kN));
}

INSTANTIATE_TEST_SUITE_P(AllSymm, SymmVsGemm,
                         ::testing::Values("SYMM-LL", "SYMM-LU", "SYMM-RL",
                                           "SYMM-RU"));

class TrmmVsGemm : public ::testing::TestWithParam<const char*> {};

TEST_P(TrmmVsGemm, MatchesGemmOnTriangularMatrix) {
  const Variant v = *find_variant(GetParam());
  Problem p = make_problem(v, 20);
  // A is already zeroed outside its triangle, so op(A)*B via GEMM is the
  // same computation.
  Matrix opa = p.a;
  if (v.trans == Trans::kT) {
    const int64_t d = p.a.rows();
    Matrix t(d, d);
    for (int64_t r = 0; r < d; ++r) {
      for (int64_t c = 0; c < d; ++c) t.set(c, r, p.a.at(r, c));
    }
    opa = t;
  }
  Matrix expected(kM, kN);
  Variant g = *find_variant("GEMM-NN");
  if (v.side == Side::kLeft) {
    run_reference(g, opa, p.b, &expected);
  } else {
    run_reference(g, p.b, opa, &expected);
  }
  run_reference(v, p.a, p.b, &p.c);
  EXPECT_LT(max_abs_diff(p.c, expected), accumulation_tolerance(kM + kN));
}

INSTANTIATE_TEST_SUITE_P(AllTrmm, TrmmVsGemm,
                         ::testing::Values("TRMM-LL-N", "TRMM-LL-T",
                                           "TRMM-LU-N", "TRMM-LU-T",
                                           "TRMM-RL-N", "TRMM-RL-T",
                                           "TRMM-RU-N", "TRMM-RU-T"));

class TrsmInverse : public ::testing::TestWithParam<const char*> {};

TEST_P(TrsmInverse, SolveThenMultiplyRecoversRhs) {
  const Variant v = *find_variant(GetParam());
  Problem p = make_problem(v, 30);
  const Matrix b0 = p.b;
  run_reference(v, p.a, p.b, nullptr);  // p.b now holds X
  // op(A) * X (or X * op(A)) must equal b0. Unit-diagonal A: TRMM with
  // the explicit unit diagonal stored gives the full product.
  Variant mult = v;
  mult.family = Family::kTrmm;
  Matrix recovered(kM, kN);
  run_reference(mult, p.a, p.b, &recovered);
  EXPECT_LT(max_abs_diff(recovered, b0), accumulation_tolerance(kM + kN));
}

INSTANTIATE_TEST_SUITE_P(AllTrsm, TrsmInverse,
                         ::testing::Values("TRSM-LL-N", "TRSM-LL-T",
                                           "TRSM-LU-N", "TRSM-LU-T",
                                           "TRSM-RL-N", "TRSM-RL-T",
                                           "TRSM-RU-N", "TRSM-RU-T"));

// -------------------------------------------------------------- source IR

class SourceIr : public ::testing::TestWithParam<Variant> {};

TEST_P(SourceIr, ValidatesStructurally) {
  ir::Program p = make_source_program(GetParam());
  oa::Status s = ir::validate(p);
  EXPECT_TRUE(s.is_ok()) << GetParam().name() << ": " << s.to_string();
  EXPECT_EQ(p.kernels.size(), 1u);
  EXPECT_NE(p.main_kernel().find("Li"), nullptr);
  EXPECT_NE(p.main_kernel().find("Lj"), nullptr);
  EXPECT_NE(p.main_kernel().find("Lk"), nullptr);
}

INSTANTIATE_TEST_SUITE_P(
    All24, SourceIr, ::testing::ValuesIn(all_variants()),
    [](const ::testing::TestParamInfo<Variant>& info) {
      std::string n = info.param.name();
      for (char& ch : n) {
        if (ch == '-') ch = '_';
      }
      return n;
    });

TEST(SourceIr, GemmNnMatchesPaperListing) {
  ir::Program p = make_source_program(*find_variant("GEMM-NN"));
  std::string s = ir::to_string(p);
  EXPECT_NE(s.find("Li: for (i = 0; i < M; i++)"), std::string::npos) << s;
  EXPECT_NE(s.find("Lk: for (k = 0; k < K; k++)"), std::string::npos);
  EXPECT_NE(s.find("C[i][j] += A[i][k] * B[k][j];"), std::string::npos);
}

TEST(SourceIr, SymmLlHasRealShadowAndDiagonal) {
  ir::Program p = make_source_program(*find_variant("SYMM-LL"));
  std::string s = ir::to_string(p);
  EXPECT_NE(s.find("C[i][j] += A[i][k] * B[k][j];"), std::string::npos) << s;
  EXPECT_NE(s.find("C[k][j] += A[i][k] * B[i][j];"), std::string::npos);
  EXPECT_NE(s.find("C[i][j] += A[i][i] * B[i][j];"), std::string::npos);
}

TEST(SourceIr, TrmmLlNHasTriangularBound) {
  ir::Program p = make_source_program(*find_variant("TRMM-LL-N"));
  const ir::Node* lk = p.main_kernel().find("Lk");
  ASSERT_NE(lk, nullptr);
  // k <= i  ==>  ub = i + 1.
  EXPECT_TRUE(lk->ub.is_single());
  EXPECT_EQ(lk->ub.terms()[0].coeff("i"), 1);
  EXPECT_EQ(lk->ub.terms()[0].constant_term(), 1);
}

TEST(SourceIr, TrsmLlNMatchesPaperListing) {
  ir::Program p = make_source_program(*find_variant("TRSM-LL-N"));
  std::string s = ir::to_string(p);
  EXPECT_NE(s.find("B[i][j] -= A[i][k] * B[k][j];"), std::string::npos) << s;
}

TEST(SourceIr, TrsmBackwardVariantsUseReversedSubscripts) {
  ir::Program p = make_source_program(*find_variant("TRSM-LU-N"));
  std::string s = ir::to_string(p);
  // Backward substitution: row index M - 1 - i.
  EXPECT_NE(s.find("M - i - 1"), std::string::npos) << s;
}

TEST(SourceIr, OutputArray) {
  EXPECT_STREQ(output_array(*find_variant("GEMM-NN")), "C");
  EXPECT_STREQ(output_array(*find_variant("TRSM-LL-N")), "B");
}

// ------------------------------------------------------------ call shape

/// One call's operand extents and the shape CallShape must read off
/// them. Rectangular throughout, with M, N and K pairwise distinct, so
/// a dim taken from the wrong axis shows.
struct ShapeRow {
  const char* variant;
  int64_t a_rows, a_cols, b_rows, b_cols, c_rows, c_cols;  // c 0x0: none
  int64_t members;
  int64_t m, n, k, dispatch;
  const char* output;
};

TEST(CallShape, DerivesDimsDispatchSizeAndOutputFromOperands) {
  const ShapeRow rows[] = {
      // GEMM: C(5x3) += op(A)(5x7) * op(B)(7x3) for every transpose.
      {"GEMM-NN", 5, 7, 7, 3, 5, 3, 1, 5, 3, 7, 7, "C"},
      {"GEMM-NT", 5, 7, 3, 7, 5, 3, 1, 5, 3, 7, 7, "C"},
      {"GEMM-TN", 7, 5, 7, 3, 5, 3, 1, 5, 3, 7, 7, "C"},
      {"GEMM-TT", 7, 5, 3, 7, 5, 3, 1, 5, 3, 7, 7, "C"},
      // Side-structured: B carries M x N, A is square over the side.
      {"SYMM-LL", 5, 5, 5, 3, 5, 3, 1, 5, 3, 5, 5, "C"},
      {"SYMM-RU", 8, 8, 3, 8, 3, 8, 1, 3, 8, 8, 8, "C"},
      {"TRMM-LL-N", 5, 5, 5, 3, 5, 3, 1, 5, 3, 5, 5, "C"},
      {"TRMM-RU-T", 8, 8, 3, 8, 3, 8, 1, 3, 8, 8, 8, "C"},
      {"TRSM-LU-T", 5, 5, 5, 3, 0, 0, 1, 5, 3, 5, 5, "B"},
      {"TRSM-RL-N", 8, 8, 3, 8, 0, 0, 1, 3, 8, 8, 8, "B"},
      // SYRK: C(6x6) += op(A)(6x4) * op(A)^T; B is never read.
      {"SYRK-LN", 6, 4, 1, 1, 6, 6, 1, 6, 6, 4, 6, "C"},
      {"SYRK-UT", 4, 6, 1, 1, 6, 6, 1, 6, 6, 4, 6, "C"},
      // Batched families: member 0's extents, counted over members.
      {"GEMM_BATCHED-NN", 5, 7, 7, 3, 5, 3, 3, 5, 3, 7, 7, "C"},
      {"DGEMM_STRIDED_BATCHED-TN", 7, 5, 7, 3, 5, 3, 2, 5, 3, 7, 7, "C"},
  };
  for (const ShapeRow& row : rows) {
    SCOPED_TRACE(row.variant);
    const Variant* v = find_variant(row.variant);
    ASSERT_NE(v, nullptr);
    const Precision p = v->precision;
    const auto count = static_cast<size_t>(row.members);
    const std::vector<Matrix> a(count, Matrix(row.a_rows, row.a_cols, p));
    const std::vector<Matrix> b(count, Matrix(row.b_rows, row.b_cols, p));
    const std::vector<Matrix> c(
        row.c_rows > 0 ? count : 0, Matrix(row.c_rows, row.c_cols, p));
    const CallShape shape =
        v->batch == Batch::kSingle
            ? CallShape(*v, a[0], b[0], c.empty() ? nullptr : &c[0])
            : CallShape(*v, a, b, &c);
    EXPECT_EQ(shape.m(), row.m);
    EXPECT_EQ(shape.n(), row.n);
    EXPECT_EQ(shape.k(), row.k);
    EXPECT_EQ(shape.count(), row.members);
    EXPECT_EQ(shape.dispatch_size(), row.dispatch);
    EXPECT_STREQ(shape.output(), row.output);
    EXPECT_TRUE(shape.validate().is_ok()) << shape.validate().to_string();
  }
}

TEST(CallShape, EnvBindsTheFamilysDimsAndTheBatch) {
  const Matrix a(5, 7), b(7, 3), c(5, 3);
  EXPECT_EQ(CallShape(*find_variant("GEMM-NN"), a, b, &c).env(),
            (ir::Env{{"M", 5}, {"N", 3}, {"K", 7}}));
  const Matrix s(5, 5);
  EXPECT_EQ(CallShape(*find_variant("SYMM-LL"), s, c, &c).env(),
            (ir::Env{{"M", 5}, {"N", 3}}));
  const std::vector<Matrix> as(3, a), bs(3, b), cs(3, c);
  EXPECT_EQ(CallShape(*find_variant("GEMM_BATCHED-NN"), as, bs, &cs).env(),
            (ir::Env{{"M", 5}, {"N", 3}, {"K", 7}, {"BATCH", 3}}));
  // Square shapes: what tuning and admission compile, at the batched
  // families' nominal batch.
  const CallShape sq = CallShape::square(*find_variant("GEMM_BATCHED-NN"), 64);
  EXPECT_EQ(sq.count(), 256);
  EXPECT_EQ(sq.env(),
            (ir::Env{{"M", 64}, {"N", 64}, {"K", 64}, {"BATCH", 256}}));
  EXPECT_EQ(CallShape::square(*find_variant("TRSM-RL-N"), 32).env(),
            (ir::Env{{"M", 32}, {"N", 32}}));
}

TEST(CallShape, ValidateChecksElementTypeAndOutput) {
  // Extent disagreements and ragged batches are covered through every
  // entry point by LibraryRuntime.RejectsInconsistentOperands.
  const Variant& gemm = *find_variant("GEMM-NN");
  const Matrix f32(8, 8), f64(8, 8, Precision::kF64);
  EXPECT_EQ(CallShape(gemm, f32, f32, &f64).validate().code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(CallShape(gemm, f32, f32, nullptr).validate().code(),
            ErrorCode::kInvalidArgument);
  // TRSM solves in B: no C needed.
  EXPECT_TRUE(CallShape(*find_variant("TRSM-LL-N"), f32, f32, nullptr)
                  .validate()
                  .is_ok());
}

}  // namespace
}  // namespace oa::blas3
