//===- relational/queries.h - Q5 / Q9 / triangle, three ways ---*- C++ -*-===//
//
// Part of the etch project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The three relational workloads of Section 8.2, each implemented on the
/// three execution models compared in Figures 19–20:
///
///   - `*Fused`    : indexed streams over trie indexes (the Etch side).
///     These are the paper's manual SQL->contraction translations, with the
///     same optimiser-style choices made by hand: per-table formats, one
///     global column order per query, and selection pushdown.
///   - `*Columnar` : pairwise vectorised hash joins with materialised
///     intermediates (the DuckDB model).
///   - `*RowStore` : tuple-at-a-time sorted-index (B-tree-style) nested
///     loops (the SQLite model).
///
/// And `*Reference`: a direct nested-loop evaluation used as the oracle in
/// tests (never benchmarked).
///
/// TPC-H Q5 (local supplier volume): revenue by nation for ASIA customers
/// whose order's supplier is in the customer's nation, orders in 1994.
/// TPC-H Q9 (product type profit): profit by (nation, year) over parts
/// whose name contains "green".
/// Triangle: Σ_{a,b,c} R(a,b)·S(b,c)·T(c,a) on the worst-case family of
/// Ngo et al. (fused: Θ(n); any pairwise plan: Θ(n²)).
///
//===----------------------------------------------------------------------===//

#ifndef ETCH_RELATIONAL_QUERIES_H
#define ETCH_RELATIONAL_QUERIES_H

#include "relational/tpch.h"
#include "support/threadpool.h"

#include <array>
#include <memory>
#include <utility>

namespace etch {

/// Q5 output: revenue per nation (ASIA nations only are nonzero).
using Q5Result = std::array<double, 25>;

/// Q9 output: profit per (nation, year), flattened as nation * 7 + (year -
/// 1992).
using Q9Result = std::array<double, 25 * 7>;

/// Pre-built physical structures, mirroring the paper's methodology of
/// loading data and building indexes before timing queries: the fused side
/// owns trie indexes ("static data structures optimized for analytics of
/// data sets at rest"), the row store owns its sorted (B-tree-like)
/// indexes. The columnar engine, like DuckDB, builds hash tables inside
/// the query.
struct Q5Prepared;
struct Q9Prepared;
struct TrianglePrepared;

std::unique_ptr<Q5Prepared> q5Prepare(const TpchDb &Db);
Q5Result q5Fused(const TpchDb &Db, const Q5Prepared &P);
Q5Result q5RowStore(const TpchDb &Db, const Q5Prepared &P);
Q5Result q5Columnar(const TpchDb &Db);
Q5Result q5Reference(const TpchDb &Db);

/// One-shot conveniences (prepare + run), used by tests.
Q5Result q5Fused(const TpchDb &Db);
Q5Result q5RowStore(const TpchDb &Db);

std::unique_ptr<Q9Prepared> q9Prepare(const TpchDb &Db);
Q9Result q9Fused(const TpchDb &Db, const Q9Prepared &P);
Q9Result q9RowStore(const TpchDb &Db, const Q9Prepared &P);
Q9Result q9Columnar(const TpchDb &Db);
Q9Result q9Reference(const TpchDb &Db);

Q9Result q9Fused(const TpchDb &Db);
Q9Result q9RowStore(const TpchDb &Db);

//===----------------------------------------------------------------------===//
// Revenue over a sparse key space (the hashed-destination workload)
//===----------------------------------------------------------------------===//

/// The external (sparse) identifier of a customer: custkey scattered
/// injectively into a 2^40 ID space, modelling un-dictionary-encoded user
/// IDs (the ROADMAP's sparse-keyed workload). Injective because the
/// multiplier is odd (invertible mod 2^40).
inline Idx sparseCustomerId(Idx CustKey) {
  return (CustKey * 0x9E3779B1LL + 7) & ((Idx(1) << 40) - 1);
}

/// Revenue per customer, grouped by sparseCustomerId: the TPC-H `revenue`
/// view keyed by external IDs. A dense group-by array would need O(2^40)
/// slots; this accumulates into a hashed destination with O(customers)
/// memory. Returns (sparse id, revenue) pairs in id order.
std::vector<std::pair<Idx, double>> revenueBySparseKey(const TpchDb &Db);

/// Nested-loop oracle for revenueBySparseKey (dense over the *dictionary*
/// key space, remapped; never benchmarked).
std::vector<std::pair<Idx, double>>
revenueBySparseKeyReference(const TpchDb &Db);

/// An edge list over integer vertices; the triangle query takes three.
struct EdgeList {
  std::vector<std::pair<Idx, Idx>> Edges;
};

/// The Θ(n)-output worst case for pairwise joins (Figure 20's instance):
/// ({0} x [n]) ∪ ([n] x {0}).
EdgeList triangleWorstCase(Idx N);

/// A uniform random graph with E edges over N vertices.
EdgeList randomEdges(Rng &R, Idx N, size_t E);

std::unique_ptr<TrianglePrepared> trianglePrepare(const EdgeList &Rab,
                                                  const EdgeList &Sbc,
                                                  const EdgeList &Tca);
int64_t triangleFused(const TrianglePrepared &P);

/// The fused triangle query with its outermost (a) level partitioned across
/// \p Pool (streams/parallel.h); per-chunk counts reduce in chunk order.
/// Chunks == 0 picks 4x the pool's thread count. Bit-identical to
/// triangleFused for any chunk/thread configuration (integer semiring).
int64_t triangleFusedParallel(ThreadPool &Pool, const TrianglePrepared &P,
                              size_t Chunks = 0);

int64_t triangleRowStore(const EdgeList &Rab, const EdgeList &Sbc,
                         const EdgeList &Tca, const TrianglePrepared &P);

int64_t triangleFused(const EdgeList &Rab, const EdgeList &Sbc,
                      const EdgeList &Tca);
int64_t triangleColumnar(const EdgeList &Rab, const EdgeList &Sbc,
                         const EdgeList &Tca);
int64_t triangleRowStore(const EdgeList &Rab, const EdgeList &Sbc,
                         const EdgeList &Tca);
int64_t triangleReference(const EdgeList &Rab, const EdgeList &Sbc,
                          const EdgeList &Tca);

} // namespace etch

#endif // ETCH_RELATIONAL_QUERIES_H
