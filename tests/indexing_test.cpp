//===- tests/indexing_test.cpp - Access indexing maps ---------------------===//
//
// Part of the etch project.
//
//===----------------------------------------------------------------------===//
//
// The indexing-map layer (planner/indexing.h): the per-access maps and
// sequential/strided/gather labels on hand-built plans, and the EXPLAIN
// access-pattern cost term they price.
//
//===----------------------------------------------------------------------===//

#include "formats/matrices.h"
#include "formats/vectors.h"
#include "planner/indexing.h"
#include "planner/plan.h"

#include <gtest/gtest.h>

using namespace etch;

namespace {

// Fresh attributes for this binary, interned in hierarchy order.
Attr tlA(int I) {
  static std::vector<Attr> As = [] {
    std::vector<Attr> V;
    for (const char *N : {"tl_i", "tl_j", "tl_k"})
      V.push_back(Attr::named(N));
    return V;
  }();
  return As.at(static_cast<size_t>(I));
}
Attr tlI() { return tlA(0); }
Attr tlJ() { return tlA(1); }
Attr tlK() { return tlA(2); }

/// Σ_j A(i,j) · x(j) with CSR A and dense x — the SpMV planning query.
struct SpmvQuery {
  PlanQuery Q;
};

SpmvQuery spmvQuery(const CsrMatrix<double> &A, const DenseVector<double> &X) {
  TypeContext Ctx;
  Ctx["A"] = Shape{tlI(), tlJ()};
  Ctx["x"] = Shape{tlJ()};
  ExprPtr E = Expr::sum(tlJ(), mulExpand(Expr::var("A"), Expr::var("x"), Ctx));
  std::map<std::string, TensorStats> Stats;
  Stats["A"] = statsOfCsr("A", A, tlI(), tlJ());
  Stats["x"] = statsOfDenseVector("x", X, tlJ());
  auto Q = extractQuery(E, Ctx, Stats, {});
  EXPECT_TRUE(Q);
  return {std::move(*Q)};
}

/// Σ_j A(i,j) · B(j,k) with CSR inputs — the matmul planning query.
PlanQuery matmulQuery(const CsrMatrix<double> &A, const CsrMatrix<double> &B) {
  TypeContext Ctx;
  Ctx["A"] = Shape{tlI(), tlJ()};
  Ctx["B"] = Shape{tlJ(), tlK()};
  ExprPtr E = Expr::sum(tlJ(), mulExpand(Expr::var("A"), Expr::var("B"), Ctx));
  std::map<std::string, TensorStats> Stats;
  Stats["A"] = statsOfCsr("A", A, tlI(), tlJ());
  Stats["B"] = statsOfCsr("B", B, tlJ(), tlK());
  auto Q = extractQuery(E, Ctx, Stats, {});
  EXPECT_TRUE(Q);
  return std::move(*Q);
}

//===----------------------------------------------------------------------===//
// Classification goldens
//===----------------------------------------------------------------------===//

TEST(Indexing, SpmvClassification) {
  // A located dense vector under a compressed driver is a gather; the
  // driving CSR walks its own storage sequentially at both levels.
  auto A = CsrMatrix<double>::fromCoo(3, 4, {{0, 1, 1}, {0, 3, 2}, {2, 0, 3}});
  DenseVector<double> X(4, 1.0);
  auto S = spmvQuery(A, X);
  auto P = planForOrder(S.Q, {tlI(), tlJ()});
  ASSERT_TRUE(P);
  IndexingInfo Info = analyzeIndexing(S.Q, *P);
  ASSERT_EQ(Info.Accesses.size(), 2u);

  const AccessIndexing *IA = Info.access("A");
  ASSERT_NE(IA, nullptr);
  EXPECT_EQ(IA->Map, "(tl_i, tl_j) -> (tl_i, tl_j)");
  ASSERT_EQ(IA->Levels.size(), 2u);
  EXPECT_TRUE(IA->Levels[0].Driving);
  EXPECT_EQ(IA->Levels[0].Pattern, AccessPattern::Sequential);
  EXPECT_TRUE(IA->Levels[1].Driving);
  EXPECT_EQ(IA->Levels[1].Pattern, AccessPattern::Sequential);

  const AccessIndexing *IX = Info.access("x");
  ASSERT_NE(IX, nullptr);
  EXPECT_EQ(IX->Map, "(tl_i, tl_j) -> (tl_j)");
  ASSERT_EQ(IX->Levels.size(), 1u);
  EXPECT_FALSE(IX->Levels[0].Driving);
  EXPECT_EQ(IX->Levels[0].Pattern, AccessPattern::Gather);

  // The gather is priced: x is visited once per (i, j) iteration.
  EXPECT_GT(Info.AccessCost, 0.0);
  PlanOptions Free;
  Free.GatherVisitCost = 0.0;
  Free.StridedVisitCost = 0.0;
  EXPECT_EQ(analyzeIndexing(S.Q, *P, Free).AccessCost, 0.0);
}

TEST(Indexing, DenseMatrixStrideUnderDenseDriver) {
  // Two dense matrices multiplied pointwise: one drives each level, the
  // other is located. The located matrix's *outer* level advances by the
  // inner dense extent per visit — strided(xNJ) — and its inner level is
  // unit stride.
  const Idx NI = 3, NJ = 5;
  std::vector<Tuple> T;
  for (Idx I = 0; I < NI; ++I)
    for (Idx J = 0; J < NJ; ++J)
      T.push_back({I, J});
  PlanQuery Q;
  PlanTerm Term;
  Term.Factors = {{"M", {tlI(), tlJ()}}, {"N", {tlI(), tlJ()}}};
  Term.Free = {};
  Term.Summed = {tlI(), tlJ()};
  Q.Terms.push_back(Term);
  auto DenseStats = [&](const char *Name) {
    return statsFromTuples(Name, {tlI(), tlJ()},
                           {LevelSpec::Dense, LevelSpec::Dense}, {NI, NJ}, T);
  };
  Q.Stats.emplace("M", DenseStats("M"));
  Q.Stats.emplace("N", DenseStats("N"));
  Q.Dims.emplace(tlI().id(), NI);
  Q.Dims.emplace(tlJ().id(), NJ);
  auto P = planForOrder(Q, {tlI(), tlJ()});
  ASSERT_TRUE(P);
  IndexingInfo Info = analyzeIndexing(Q, *P);
  ASSERT_EQ(Info.Accesses.size(), 2u);
  // Exactly one access drives the outer level; the other is the located
  // one, whatever the tie-break picked.
  const AccessIndexing &L0 = Info.Accesses[0].Levels[0].Driving
                                 ? Info.Accesses[1]
                                 : Info.Accesses[0];
  ASSERT_EQ(L0.Levels.size(), 2u);
  EXPECT_FALSE(L0.Levels[0].Driving);
  EXPECT_EQ(L0.Levels[0].Pattern, AccessPattern::Strided);
  EXPECT_EQ(L0.Levels[0].Stride, NJ);
  EXPECT_FALSE(L0.Levels[1].Driving);
  EXPECT_EQ(L0.Levels[1].Pattern, AccessPattern::Sequential);
  // The strided level renders its stride.
  EXPECT_NE(Info.toString().find("dense strided(x5)"), std::string::npos);
}

TEST(Indexing, MatmulRowGatherGolden) {
  // Linear-combination matmul: B's dense row level is located by A's
  // compressed j coordinates — a gather; B's k level drives.
  auto A = CsrMatrix<double>::fromCoo(2, 3, {{0, 0, 1}, {0, 2, 2}, {1, 1, 3}});
  auto B = CsrMatrix<double>::fromCoo(3, 2, {{0, 1, 4}, {2, 0, 5}, {2, 1, 6}});
  PlanQuery Q = matmulQuery(A, B);
  auto P = planForOrder(Q, {tlI(), tlJ(), tlK()});
  ASSERT_TRUE(P);
  IndexingInfo Info = analyzeIndexing(Q, *P);
  EXPECT_EQ(Info.toString(),
            "indexing:\n"
            "  A: (tl_i, tl_j, tl_k) -> (tl_i, tl_j); tl_i dense sequential"
            " [drives], tl_j compressed sequential [drives]\n"
            "  B: (tl_i, tl_j, tl_k) -> (tl_j, tl_k); tl_j dense gather,"
            " tl_k compressed sequential [drives]\n");
}

TEST(Indexing, ExplainRendersAccessTerm) {
  auto A = CsrMatrix<double>::fromCoo(3, 4, {{0, 1, 1}, {0, 3, 2}, {2, 0, 3}});
  DenseVector<double> X(4, 1.0);
  auto S = spmvQuery(A, X);
  auto Best = bestPlan(S.Q);
  ASSERT_TRUE(Best);
  std::string Explain = Best->explain(S.Q);
  EXPECT_NE(Explain.find(" access\n"), std::string::npos);
  EXPECT_NE(Explain.find("indexing:\n"), std::string::npos);
  EXPECT_NE(Explain.find("tl_j dense gather"), std::string::npos);
  // The access term the EXPLAIN prices is the stored AccessCost.
  EXPECT_GT(Best->AccessCost, 0.0);
  EXPECT_EQ(Best->cost(), Best->StreamCost + Best->TransposeCost +
                              Best->RehashCost + Best->AccessCost);
}

} // namespace
