//===- relational/queries_triangle.cpp - The triangle query --------------===//
//
// Part of the etch project.
//
//===----------------------------------------------------------------------===//
//
// count = Σ_{a,b,c} R(a,b) · S(b,c) · T(c,a)  (Figure 20; Ngo et al.'s
// motivating query). Column order a < b < c; T is re-indexed as (a, c).
// The fused indexed-stream evaluation is the GenericJoin loop structure
// (Section 5.4.2) and meets the worst-case-optimal bound; both pairwise
// baselines must materialise the Θ(n²) intermediate R ⋈ S (columnar) or
// probe Θ(n²) tuples (row store) on the worst-case family.
//
//===----------------------------------------------------------------------===//

#include "relational/prepared.h"
#include "streams/combinators.h"
#include "streams/eval.h"
#include "streams/parallel.h"

#include <algorithm>
#include <unordered_set>

using namespace etch;

EdgeList etch::triangleWorstCase(Idx N) {
  EdgeList G;
  G.Edges.reserve(static_cast<size_t>(2 * N));
  for (Idx I = 0; I < N; ++I) {
    G.Edges.push_back({0, I});
    if (I != 0)
      G.Edges.push_back({I, 0});
  }
  return G;
}

EdgeList etch::randomEdges(Rng &R, Idx N, size_t E) {
  EdgeList G;
  G.Edges.reserve(E);
  for (uint64_t C :
       R.sampleDistinctSorted(E, static_cast<uint64_t>(N) * N))
    G.Edges.push_back({static_cast<Idx>(C / N), static_cast<Idx>(C % N)});
  return G;
}

namespace {

Trie<2, int64_t> trieOf(const EdgeList &G, bool Swap) {
  std::vector<std::array<Idx, 2>> Keys;
  Keys.reserve(G.Edges.size());
  for (auto [U, V] : G.Edges)
    Keys.push_back(Swap ? std::array<Idx, 2>{V, U}
                        : std::array<Idx, 2>{U, V});
  return Trie<2, int64_t>::fromKeys(std::move(Keys), 1);
}

} // namespace

std::unique_ptr<TrianglePrepared>
etch::trianglePrepare(const EdgeList &Rab, const EdgeList &Sbc,
                      const EdgeList &Tca) {
  std::vector<Idx> Sb(Sbc.Edges.size());
  for (size_t I = 0; I < Sbc.Edges.size(); ++I)
    Sb[I] = Sbc.Edges[I].first;

  Idx MaxA = 1;
  for (auto [C, A] : Tca.Edges) {
    (void)C;
    MaxA = std::max(MaxA, A + 1);
  }
  for (auto [A, B] : Rab.Edges) {
    (void)B;
    MaxA = std::max(MaxA, A + 1);
  }
  std::vector<Idx> TKey(Tca.Edges.size());
  for (size_t I = 0; I < Tca.Edges.size(); ++I)
    TKey[I] = Tca.Edges[I].first * MaxA + Tca.Edges[I].second;

  return std::unique_ptr<TrianglePrepared>(new TrianglePrepared{
      trieOf(Rab, false), // (a, b)
      trieOf(Sbc, false), // (b, c)
      trieOf(Tca, true),  // (c, a) re-indexed as (a, c)
      SortedIndex(Sb), SortedIndex(TKey), MaxA});
}

int64_t etch::triangleFused(const TrianglePrepared &P) {
  // Lift to [a, b, c] and take the three-way product.
  auto R3 = mapStream(P.R.stream(), [](auto BLev) {
    return mapStream(std::move(BLev),
                     [](int64_t V) { return repeatUnbounded(V); });
  });
  auto S3 = repeatUnbounded(P.S.stream());
  auto T3 = mapStream(P.T.stream(), [](auto CLev) {
    return repeatUnbounded(std::move(CLev));
  });

  using K = I64Semiring;
  return sumAll<K>(mulStreams<K>(R3, mulStreams<K>(S3, T3)));
}

int64_t etch::triangleFusedParallel(ThreadPool &Pool,
                                    const TrianglePrepared &P,
                                    size_t Chunks) {
  if (Chunks == 0)
    Chunks = Pool.threadCount() * 4;
  // Same plan as triangleFused; only the outermost a level (R's top trie
  // level, a compressed level) is partitioned, and only R3 needs bounding —
  // the three-way product intersects S3/T3 down to each chunk's a range.
  auto R3 = mapStream(P.R.stream(), [](auto BLev) {
    return mapStream(std::move(BLev),
                     [](int64_t V) { return repeatUnbounded(V); });
  });
  auto S3 = repeatUnbounded(P.S.stream());
  auto T3 = mapStream(P.T.stream(), [](auto CLev) {
    return repeatUnbounded(std::move(CLev));
  });

  using K = I64Semiring;
  auto Q = mulStreams<K>(std::move(R3), mulStreams<K>(std::move(S3),
                                                      std::move(T3)));
  return parallelSumAll<K>(Pool, Q,
                           partitionSparse(P.R.stream(), Chunks));
}

int64_t etch::triangleFused(const EdgeList &Rab, const EdgeList &Sbc,
                            const EdgeList &Tca) {
  return triangleFused(*trianglePrepare(Rab, Sbc, Tca));
}

int64_t etch::triangleColumnar(const EdgeList &Rab, const EdgeList &Sbc,
                               const EdgeList &Tca) {
  // Pairwise plan: materialise R ⋈ S on b, then hash-join the (a, c)
  // pairs against T. The intermediate is Θ(n²) on the worst-case family.
  std::vector<Idx> Rb(Rab.Edges.size()), Ra(Rab.Edges.size());
  for (size_t I = 0; I < Rab.Edges.size(); ++I) {
    Ra[I] = Rab.Edges[I].first;
    Rb[I] = Rab.Edges[I].second;
  }
  std::vector<Idx> Sb(Sbc.Edges.size()), Sc(Sbc.Edges.size());
  for (size_t I = 0; I < Sbc.Edges.size(); ++I) {
    Sb[I] = Sbc.Edges[I].first;
    Sc[I] = Sbc.Edges[I].second;
  }
  JoinPairs RS = hashJoin(Rb, Sb);

  // Materialise the intermediate's (a, c) columns.
  std::vector<Idx> Ia(RS.size()), Ic(RS.size());
  for (size_t I = 0; I < RS.size(); ++I) {
    Ia[I] = Ra[RS.Left[I]];
    Ic[I] = Sc[RS.Right[I]];
  }

  // Probe T with the composite key (c, a).
  Idx MaxA = 1;
  for (auto [C, A] : Tca.Edges)
    MaxA = std::max(MaxA, A + 1);
  for (Idx A : Ia)
    MaxA = std::max(MaxA, A + 1);
  std::vector<Idx> TKey(Tca.Edges.size());
  for (size_t I = 0; I < Tca.Edges.size(); ++I)
    TKey[I] = Tca.Edges[I].first * MaxA + Tca.Edges[I].second;
  HashIndex TIdx(TKey);
  int64_t Count = 0;
  std::vector<RowId> Matches;
  for (size_t I = 0; I < Ia.size(); ++I) {
    Matches.clear();
    TIdx.probe(Ic[I] * MaxA + Ia[I], Matches);
    Count += static_cast<int64_t>(Matches.size());
  }
  return Count;
}

int64_t etch::triangleRowStore(const EdgeList &Rab, const EdgeList &Sbc,
                               const EdgeList &Tca,
                               const TrianglePrepared &P) {
  // Tuple-at-a-time: for each (a,b) in R, scan S's b-index, then probe
  // T's (c,a) index. Probes Θ(n²) tuples on the worst-case family.
  int64_t Count = 0;
  for (auto [A, B] : Rab.Edges) {
    P.SByB.scanEqual(B, [&, A = A](RowId SRow) {
      Idx C = Sbc.Edges[SRow].second;
      P.TByCA.scanEqual(C * P.MaxA + A, [&](RowId) { ++Count; });
    });
  }
  return Count;
}

int64_t etch::triangleRowStore(const EdgeList &Rab, const EdgeList &Sbc,
                               const EdgeList &Tca) {
  return triangleRowStore(Rab, Sbc, Tca, *trianglePrepare(Rab, Sbc, Tca));
}

int64_t etch::triangleReference(const EdgeList &Rab, const EdgeList &Sbc,
                                const EdgeList &Tca) {
  // Hash-set membership, loop over R x S adjacency — simple and obviously
  // correct for tests.
  std::unordered_set<uint64_t> T;
  Idx MaxV = 1;
  for (auto [C, A] : Tca.Edges)
    MaxV = std::max({MaxV, C + 1, A + 1});
  for (auto [C, A] : Tca.Edges)
    T.insert(static_cast<uint64_t>(C) * static_cast<uint64_t>(MaxV) +
             static_cast<uint64_t>(A));

  std::vector<std::vector<Idx>> SAdj;
  for (auto [B, C] : Sbc.Edges) {
    if (static_cast<size_t>(B) >= SAdj.size())
      SAdj.resize(static_cast<size_t>(B) + 1);
    SAdj[static_cast<size_t>(B)].push_back(C);
  }

  int64_t Count = 0;
  for (auto [A, B] : Rab.Edges) {
    if (static_cast<size_t>(B) >= SAdj.size() || A >= MaxV)
      continue;
    for (Idx C : SAdj[static_cast<size_t>(B)])
      if (C < MaxV &&
          T.count(static_cast<uint64_t>(C) * static_cast<uint64_t>(MaxV) +
                  static_cast<uint64_t>(A)))
        ++Count;
  }
  return Count;
}
