//===- baselines/etch_kernels.h - Stream-composed (Etch) kernels -*- C++-*-=//
//
// Part of the etch project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Etch side of Figure 17 and Sections 8.1/8.3: each benchmark
/// expression composed from indexed streams. Because the combinators are
/// templates, composition happens at C++ compile time and the optimiser
/// sees exactly the fused loop nest the Etch compiler would emit as C —
/// these kernels *are* the generated code, driven through the formal
/// model's operators (the compiler path is validated separately against
/// the same oracle).
///
//===----------------------------------------------------------------------===//

#ifndef ETCH_BASELINES_ETCH_KERNELS_H
#define ETCH_BASELINES_ETCH_KERNELS_H

#include "formats/csf.h"
#include "formats/matrices.h"
#include "formats/vectors.h"
#include "streams/combinators.h"
#include "streams/eval.h"
#include "streams/parallel.h"

#include <algorithm>

namespace etch {
namespace kernels {

using S = F64Semiring;

/// y(i) = Σ_j A(i,j) · x(j), dense x. The dense operand is a locate level
/// (always ready, O(1) access), so the product folds it into a lookup —
/// the same simplification the Etch compiler's dense format performs.
inline void spmv(const CsrMatrix<double> &A, const DenseVector<double> &X,
                 DenseVector<double> &Y) {
  const double *XP = X.Val.data();
  forEach(A.stream(), [&](Idx I, auto Row) {
    Y.Val[static_cast<size_t>(I)] =
        sumAll<S>(mulDenseLocate<S>(std::move(Row), XP));
  });
}

/// out = Σ_i x(i) · y(i) · z(i) (Figure 2). \p P picks the skip policy.
template <SearchPolicy P = SearchPolicy::Linear>
double tripleDot(const SparseVector<double> &X, const SparseVector<double> &Y,
                 const SparseVector<double> &Z) {
  return sumAll<S>(mulStreams<S>(
      X.stream<P>(), mulStreams<S>(Y.stream<P>(), Z.stream<P>())));
}

/// C = A + B on CSR via the addition combinator.
inline CsrMatrix<double> matAdd(const CsrMatrix<double> &A,
                                const CsrMatrix<double> &B) {
  CsrMatrix<double> C(A.NumRows, A.NumCols);
  auto Sum = addStreams<S>(A.stream(), B.stream());
  forEach(std::move(Sum), [&](Idx I, auto Row) {
    C.Pos[static_cast<size_t>(I)] = C.Crd.size();
    forEach(std::move(Row), [&](Idx J, double V) {
      C.Crd.push_back(J);
      C.Val.push_back(V);
    });
  });
  // Dense outer level: every row is visited, so only the tail needs
  // closing.
  C.Pos[static_cast<size_t>(A.NumRows)] = C.Crd.size();
  return C;
}

/// out = Σ_{i,j} A(i,j) · B(i,j).
inline double inner(const CsrMatrix<double> &A, const CsrMatrix<double> &B) {
  return sumAll<S>(mulStreams<S>(A.stream(), B.stream()));
}

/// C = A · B via linear combination of rows (Section 5.4.1's e2 ordering)
/// with a dense workspace for row assembly.
inline CsrMatrix<double> mmul(const CsrMatrix<double> &A,
                              const CsrMatrix<double> &B) {
  CsrMatrix<double> C(A.NumRows, B.NumCols);
  std::vector<double> W(static_cast<size_t>(B.NumCols), 0.0);
  std::vector<Idx> Touched;
  // Σ_j A(i,j) · B(j,k): iterate rows of A; the j level pairs A's row with
  // B's row level (a sparse-dense intersection); the k level scales B's
  // row into the workspace.
  forEach(A.stream(), [&](Idx I, auto RowA) {
    Touched.clear();
    auto JLevel = joinStreams(PairBoth{}, std::move(RowA), B.stream());
    forEach(std::move(JLevel), [&](Idx, auto Pair) {
      double VA = Pair.first;
      forEach(std::move(Pair.second), [&](Idx K, double VB) {
        if (W[static_cast<size_t>(K)] == 0.0)
          Touched.push_back(K);
        W[static_cast<size_t>(K)] += VA * VB;
      });
    });
    C.Pos[static_cast<size_t>(I)] = C.Crd.size();
    std::sort(Touched.begin(), Touched.end());
    for (Idx K : Touched) {
      C.Crd.push_back(K);
      C.Val.push_back(W[static_cast<size_t>(K)]);
      W[static_cast<size_t>(K)] = 0.0;
    }
  });
  C.Pos[static_cast<size_t>(A.NumRows)] = C.Crd.size();
  return C;
}

/// C = A · B via the inner-product ordering (Section 5.4.1's e1): BT must
/// be B transposed, stored CSR. Asymptotically O(rows² · k) — the slow
/// ordering of the Section 8.1 experiment.
inline CsrMatrix<double> mmulInnerProduct(const CsrMatrix<double> &A,
                                          const CsrMatrix<double> &BT) {
  CsrMatrix<double> C(A.NumRows, BT.NumRows);
  for (Idx I = 0; I < A.NumRows; ++I) {
    C.Pos[static_cast<size_t>(I)] = C.Crd.size();
    forEach(BT.stream(), [&](Idx K, auto RowBT) {
      const size_t *Pos = A.Pos.data();
      auto Leaf = [&A](size_t Q) { return A.Val[Q]; };
      SparseStream<decltype(Leaf)> RowA(A.Crd.data(),
                                        Pos[static_cast<size_t>(I)],
                                        Pos[static_cast<size_t>(I) + 1],
                                        Leaf);
      double V = sumAll<S>(mulStreams<S>(RowA, std::move(RowBT)));
      if (V != 0.0) {
        C.Crd.push_back(K);
        C.Val.push_back(V);
      }
    });
  }
  C.Pos[static_cast<size_t>(A.NumRows)] = C.Crd.size();
  return C;
}

/// C = A ∘ B on DCSR. \p P picks the column-level skip policy — Binary /
/// Gallop gives the asymptotic advantage over TACO's linear merge when one
/// operand is much denser (the paper's `smul` result).
template <SearchPolicy P = SearchPolicy::Linear>
DcsrMatrix<double> smul(const DcsrMatrix<double> &A,
                        const DcsrMatrix<double> &B) {
  DcsrMatrix<double> C;
  C.NumRows = A.NumRows;
  C.NumCols = A.NumCols;
  C.Pos.push_back(0);
  auto Prod = mulStreams<S>(A.stream<P, P>(), B.stream<P, P>());
  forEach(std::move(Prod), [&](Idx I, auto Row) {
    size_t Before = C.Crd.size();
    forEach(std::move(Row), [&](Idx J, double V) {
      C.Crd.push_back(J);
      C.Val.push_back(V);
    });
    if (C.Crd.size() != Before) {
      C.RowCrd.push_back(I);
      C.Pos.push_back(C.Crd.size());
    }
  });
  return C;
}

/// A(i,j) = Σ_{k,l} B(i,k,l) · C(k,j) · D(l,j): MTTKRP; the j level is a
/// product of two dense factor-row streams scaled by the tensor value.
inline void mttkrp(const CsfTensor3<double> &B, const std::vector<double> &C,
                   const std::vector<double> &D, int64_t R,
                   std::vector<double> &A) {
  A.assign(static_cast<size_t>(B.DimI * R), 0.0);
  forEach(B.stream(), [&](Idx I, auto Fiber) {
    double *ARow = &A[static_cast<size_t>(I * R)];
    forEach(std::move(Fiber), [&](Idx K, auto Row) {
      const double *CRow = &C[static_cast<size_t>(K * R)];
      forEach(std::move(Row), [&](Idx L, double V) {
        const double *DRow = &D[static_cast<size_t>(L * R)];
        // Both factors are dense locate levels; the j level is one dense
        // stream whose value folds both lookups.
        auto JProd = mulDenseLocate<S>(
            mulDenseLocate<S>(
                RepeatStream<double>(R, V), CRow),
            DRow);
        forEach(std::move(JProd),
                [&](Idx J, double CD) { ARow[J] += CD; });
      });
    });
  });
}

/// Fused filtered SpMV (Section 8.3 / Figure 21): y(i) = p(i) · Σ_j
/// A(i,j) · x(j), where \p PassRows holds the row ids satisfying the
/// relational filter. The row-level intersection skips all work for
/// filtered-out rows.
inline void filteredSpmvFused(const CsrMatrix<double> &A,
                              const DenseVector<double> &X,
                              const SparseVector<double> &PassRows,
                              DenseVector<double> &Y) {
  const double *XP = X.Val.data();
  auto Rows = joinStreams(KeepLeft{}, A.stream(),
                          PassRows.stream<SearchPolicy::Gallop>());
  forEach(std::move(Rows), [&](Idx I, auto Row) {
    Y.Val[static_cast<size_t>(I)] =
        sumAll<S>(mulDenseLocate<S>(std::move(Row), XP));
  });
}

//===----------------------------------------------------------------------===//
// Parallel variants (streams/parallel.h): the same fused stream loops, run
// per chunk of the outermost level. Each kernel's per-row work is entirely
// inside one chunk, so results are bit-identical to the serial kernel for
// any chunk list and any thread count.
//===----------------------------------------------------------------------===//

/// Row-parallel SpMV. Rows are partitioned by cumulative nnz (balanced even
/// on skewed matrices); each chunk writes its own rows of Y.
inline void spmvParallel(ThreadPool &Pool, const CsrMatrix<double> &A,
                         const DenseVector<double> &X,
                         DenseVector<double> &Y, size_t Chunks = 0) {
  if (Chunks == 0)
    Chunks = Pool.threadCount() * 4;
  const double *XP = X.Val.data();
  parallelForEach(Pool, A.stream(),
                  partitionByPos(A.Pos.data(), A.NumRows, Chunks),
                  [&Y, XP](Idx I, auto Row) {
                    Y.Val[static_cast<size_t>(I)] =
                        sumAll<S>(mulDenseLocate<S>(std::move(Row), XP));
                  });
}

/// Row-parallel elementwise DCSR multiply: each chunk of A's row range
/// produces a private DCSR fragment; fragments concatenate in chunk order,
/// reproducing the serial output exactly.
template <SearchPolicy P = SearchPolicy::Linear>
DcsrMatrix<double> smulParallel(ThreadPool &Pool,
                                const DcsrMatrix<double> &A,
                                const DcsrMatrix<double> &B,
                                size_t Chunks = 0) {
  if (Chunks == 0)
    Chunks = Pool.threadCount() * 4;
  auto Ranges = partitionSparse(A.stream<P, P>(), Chunks);

  struct Fragment {
    std::vector<Idx> RowCrd, Crd;
    std::vector<double> Val;
    std::vector<size_t> RowLen; // nnz per nonempty row, aligned with RowCrd
  };
  std::vector<Fragment> Frags(Ranges.size());
  Pool.parallelFor(Ranges.size(), [&](size_t C) {
    Fragment &F = Frags[C];
    auto Prod = mulStreams<S>(A.stream<P, P>(), B.stream<P, P>());
    forEach(BoundedStream<decltype(Prod)>(std::move(Prod), Ranges[C].Lo,
                                          Ranges[C].Hi),
            [&F](Idx I, auto Row) {
              size_t Before = F.Crd.size();
              forEach(std::move(Row), [&F](Idx J, double V) {
                F.Crd.push_back(J);
                F.Val.push_back(V);
              });
              if (F.Crd.size() != Before) {
                F.RowCrd.push_back(I);
                F.RowLen.push_back(F.Crd.size() - Before);
              }
            });
  });

  DcsrMatrix<double> Out;
  Out.NumRows = A.NumRows;
  Out.NumCols = A.NumCols;
  Out.Pos.push_back(0);
  for (const Fragment &F : Frags) {
    Out.RowCrd.insert(Out.RowCrd.end(), F.RowCrd.begin(), F.RowCrd.end());
    Out.Crd.insert(Out.Crd.end(), F.Crd.begin(), F.Crd.end());
    Out.Val.insert(Out.Val.end(), F.Val.begin(), F.Val.end());
    for (size_t Len : F.RowLen)
      Out.Pos.push_back(Out.Pos.back() + Len);
  }
  return Out;
}

/// Fiber-parallel MTTKRP: the outer compressed i-level is partitioned by
/// position, so each chunk owns a disjoint set of output rows of A.
inline void mttkrpParallel(ThreadPool &Pool, const CsfTensor3<double> &B,
                           const std::vector<double> &C,
                           const std::vector<double> &D, int64_t R,
                           std::vector<double> &A, size_t Chunks = 0) {
  if (Chunks == 0)
    Chunks = Pool.threadCount() * 4;
  A.assign(static_cast<size_t>(B.DimI * R), 0.0);
  double *AP = A.data();
  const double *CP = C.data();
  const double *DP = D.data();
  parallelForEach(
      Pool, B.stream(), partitionSparse(B.stream(), Chunks),
      [AP, CP, DP, R](Idx I, auto Fiber) {
        double *ARow = AP + static_cast<size_t>(I * R);
        forEach(std::move(Fiber), [&](Idx K, auto Row) {
          const double *CRow = CP + static_cast<size_t>(K * R);
          forEach(std::move(Row), [&](Idx L, double V) {
            const double *DRow = DP + static_cast<size_t>(L * R);
            auto JProd = mulDenseLocate<S>(
                mulDenseLocate<S>(RepeatStream<double>(R, V), CRow), DRow);
            forEach(std::move(JProd),
                    [&](Idx J, double CD) { ARow[J] += CD; });
          });
        });
      });
}

/// Row-parallel fused filtered SpMV: the passing-rows vector (the selective
/// side of the intersection) is partitioned by position, so chunks hold
/// near-equal numbers of surviving rows; each writes its own rows of Y.
inline void filteredSpmvFusedParallel(ThreadPool &Pool,
                                      const CsrMatrix<double> &A,
                                      const DenseVector<double> &X,
                                      const SparseVector<double> &PassRows,
                                      DenseVector<double> &Y,
                                      size_t Chunks = 0) {
  if (Chunks == 0)
    Chunks = Pool.threadCount() * 4;
  const double *XP = X.Val.data();
  auto Rows = joinStreams(KeepLeft{}, A.stream(),
                          PassRows.stream<SearchPolicy::Gallop>());
  parallelForEach(
      Pool, Rows,
      partitionSparse(PassRows.stream<SearchPolicy::Gallop>(), Chunks),
      [&Y, XP](Idx I, auto Row) {
        Y.Val[static_cast<size_t>(I)] =
            sumAll<S>(mulDenseLocate<S>(std::move(Row), XP));
      });
}

/// The unfused baseline: materialise the full SpMV, then apply the filter.
inline void filteredSpmvUnfused(const CsrMatrix<double> &A,
                                const DenseVector<double> &X,
                                const SparseVector<double> &PassRows,
                                DenseVector<double> &Y) {
  DenseVector<double> Tmp(A.NumRows);
  kernels::spmv(A, X, Tmp);
  for (size_t P = 0; P < PassRows.nnz(); ++P)
    Y.Val[static_cast<size_t>(PassRows.Crd[P])] =
        Tmp.Val[static_cast<size_t>(PassRows.Crd[P])];
}

} // namespace kernels
} // namespace etch

#endif // ETCH_BASELINES_ETCH_KERNELS_H
