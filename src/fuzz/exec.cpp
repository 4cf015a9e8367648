//===- fuzz/exec.cpp - The differential executor matrix -------------------===//
//
// Part of the etch project.
//
//===----------------------------------------------------------------------===//

#include "fuzz/exec.h"

#include "compiler/bytecode.h"
#include "compiler/frontend.h"
#include "compiler/imp.h"
#include "compiler/jit.h"
#include "compiler/vm.h"
#include "core/eval.h"
#include "core/semiring.h"
#include "formats/csf.h"
#include "formats/matrices.h"
#include "formats/vectors.h"
#include "fuzz/dynstream.h"
#include "support/assert.h"

#include <cmath>
#include <cstring>
#include <map>
#include <optional>
#include <sstream>
#include <string>

using namespace etch;

namespace {

/// Leaf storage element: the semiring's value type, except the boolean
/// semiring which stores uint8_t indicators (std::vector<bool> has no
/// data() to stream over).
template <Semiring S>
using StoreT = std::conditional_t<std::is_same_v<typename S::Value, bool>,
                                  uint8_t, typename S::Value>;

/// All of a case's tensors materialized into real format storage. Hv is
/// only populated by the formats matrix (addHashed): every sparse-vector
/// tensor re-materialized as a hashed coordinate level.
template <Semiring S> struct Mats {
  using V = StoreT<S>;
  std::map<std::string, SparseVector<V>> Sv;
  std::map<std::string, DenseVector<V>> Dv;
  std::map<std::string, CsrMatrix<V>> Csr;
  std::map<std::string, DcsrMatrix<V>> Dcsr;
  std::map<std::string, CsfTensor3<V>> Csf;
  std::map<std::string, HashedVector<V>> Hv;
};

/// Builds format arrays directly from the (sorted, distinct, validated)
/// case entries. The fromCoo builders are deliberately not used: their
/// canonicalization drops values equal to `V()`, which is the additive
/// identity for (+,*) semirings but a perfectly meaningful value under
/// (min,+), where the zero is +inf.
template <Semiring S> Mats<S> materialize(const FuzzCase &C) {
  using V = StoreT<S>;
  Mats<S> M;
  auto Conv = [](double Raw) { return static_cast<V>(fuzzValue<S>(Raw)); };
  for (const FuzzTensor &T : C.Tensors) {
    const auto &E = T.Entries;
    switch (T.Fmt) {
    case FuzzFormat::SparseVec: {
      SparseVector<V> X(C.dimOf(T.Shp[0]));
      for (const FuzzEntry &En : E)
        X.push(En.Coords[0], Conv(En.Val));
      M.Sv.emplace(T.Name, std::move(X));
      break;
    }
    case FuzzFormat::DenseVec: {
      // Unset positions hold the semiring zero, not V() (again: +inf under
      // (min,+)).
      DenseVector<V> X(C.dimOf(T.Shp[0]), static_cast<V>(S::zero()));
      for (const FuzzEntry &En : E)
        X.Val[static_cast<size_t>(En.Coords[0])] = Conv(En.Val);
      M.Dv.emplace(T.Name, std::move(X));
      break;
    }
    case FuzzFormat::Csr: {
      Idx Rows = C.dimOf(T.Shp[0]);
      CsrMatrix<V> X(Rows, C.dimOf(T.Shp[1]));
      size_t Q = 0;
      for (Idx R = 0; R < Rows; ++R) {
        X.Pos[static_cast<size_t>(R)] = X.Crd.size();
        while (Q < E.size() && E[Q].Coords[0] == R) {
          X.Crd.push_back(E[Q].Coords[1]);
          X.Val.push_back(Conv(E[Q].Val));
          ++Q;
        }
      }
      X.Pos[static_cast<size_t>(Rows)] = X.Crd.size();
      M.Csr.emplace(T.Name, std::move(X));
      break;
    }
    case FuzzFormat::Dcsr: {
      DcsrMatrix<V> X;
      X.NumRows = C.dimOf(T.Shp[0]);
      X.NumCols = C.dimOf(T.Shp[1]);
      X.Pos.push_back(0);
      for (size_t Q = 0; Q < E.size();) {
        Idx R = E[Q].Coords[0];
        X.RowCrd.push_back(R);
        while (Q < E.size() && E[Q].Coords[0] == R) {
          X.Crd.push_back(E[Q].Coords[1]);
          X.Val.push_back(Conv(E[Q].Val));
          ++Q;
        }
        X.Pos.push_back(X.Crd.size());
      }
      M.Dcsr.emplace(T.Name, std::move(X));
      break;
    }
    case FuzzFormat::Csf3: {
      CsfTensor3<V> X;
      X.DimI = C.dimOf(T.Shp[0]);
      X.DimJ = C.dimOf(T.Shp[1]);
      X.DimK = C.dimOf(T.Shp[2]);
      X.Pos0.push_back(0);
      for (size_t Q = 0; Q < E.size();) {
        Idx I = E[Q].Coords[0];
        X.Crd0.push_back(I);
        while (Q < E.size() && E[Q].Coords[0] == I) {
          Idx J = E[Q].Coords[1];
          X.Crd1.push_back(J);
          X.Pos1.push_back(X.Crd2.size());
          while (Q < E.size() && E[Q].Coords[0] == I && E[Q].Coords[1] == J) {
            X.Crd2.push_back(E[Q].Coords[2]);
            X.Val.push_back(Conv(E[Q].Val));
            ++Q;
          }
        }
        X.Pos0.push_back(X.Crd1.size());
      }
      X.Pos1.push_back(X.Crd2.size());
      M.Csf.emplace(T.Name, std::move(X));
      break;
    }
    }
  }
  return M;
}

/// Re-materializes every sparse-vector tensor as a hashed coordinate level
/// (insertion via the probe table, then a frozen sorted snapshot). Entries
/// are distinct, so accumulate never merges — the snapshot holds exactly
/// the case data, bit-identical to the SparseVector layout.
template <Semiring S> void addHashed(Mats<S> &M, const FuzzCase &C) {
  using V = StoreT<S>;
  for (const FuzzTensor &T : C.Tensors) {
    if (T.Fmt != FuzzFormat::SparseVec)
      continue;
    HashedVector<V> H(C.dimOf(T.Shp[0]), T.Entries.size());
    for (const FuzzEntry &En : T.Entries)
      H.accumulate(En.Coords[0], static_cast<V>(fuzzValue<S>(En.Val)));
    H.freeze();
    M.Hv.emplace(T.Name, std::move(H));
  }
}

//===----------------------------------------------------------------------===//
// Oracle
//===----------------------------------------------------------------------===//

/// Materializes every dense (expand-produced) attribute of \p R over its
/// full extent [0, dim). KRelation::expandFinite cannot do this (it asserts
/// the attribute is not already in the shape), so replay each entry against
/// a copy whose dense set shrinks by one attribute at a time.
template <Semiring S>
KRelation<S> densifyAll(KRelation<S> R, const FuzzCase &C) {
  while (!R.denseAttrs().empty()) {
    Attr A = R.denseAttrs().front();
    Idx N = C.dimOf(A);
    KRelation<S> Next(R.shape(), shapeMinus(R.denseAttrs(), Shape{A}));
    int Pos = shapeIndexOf(Next.finiteShape(), A);
    ETCH_ASSERT(Pos >= 0, "densified attribute must be finite");
    for (const auto &[T, V] : R.entries())
      for (Idx I = 0; I < N; ++I) {
        Tuple U = T;
        U.insert(U.begin() + Pos, I);
        Next.insert(U, V);
      }
    R = std::move(Next);
  }
  R.pruneZeros();
  return R;
}

//===----------------------------------------------------------------------===//
// Comparison and reporting
//===----------------------------------------------------------------------===//

/// Scalar agreement. Exact for i64/bool and for (min,+) — min and + of the
/// generator's dyadic-rational values re-associate exactly — and within a
/// scaled tolerance for f64, whose parallel and compiled legs re-associate
/// sums. Note KRelation::approxEquals is NOT usable for (min,+): its scaled
/// tolerance is infinite against the +inf zero of missing entries.
template <Semiring S> bool valEq(typename S::Value A, typename S::Value B) {
  if (A == B)
    return true;
  if constexpr (std::is_same_v<S, F64Semiring>) {
    double Scale = std::max({1.0, std::fabs(A), std::fabs(B)});
    return std::fabs(A - B) <= 1e-9 * Scale;
  } else {
    return false;
  }
}

template <Semiring S>
bool relEq(const KRelation<S> &A, const KRelation<S> &B) {
  if constexpr (std::is_same_v<S, F64Semiring>)
    return A.approxEquals(B);
  else
    return A.equals(B);
}

template <Semiring S> std::string valStr(typename S::Value V) {
  std::ostringstream Os;
  if constexpr (std::is_same_v<typename S::Value, bool>)
    Os << (V ? "true" : "false");
  else
    Os << V;
  return Os.str();
}

std::string cap(std::string Str, size_t Max = 2000) {
  if (Str.size() > Max) {
    Str.resize(Max);
    Str += " ...";
  }
  return Str;
}

void reportDiv(FuzzReport &Rep, const FuzzCase &C, std::string Leg,
               const std::string &Detail) {
  Rep.Divs.push_back(
      FuzzDivergence{std::move(Leg), cap(C.summary() + "\n" + Detail)});
}

template <Semiring S>
std::string relDetail(const KRelation<S> &Want, const KRelation<S> &Got) {
  return "want: " + Want.toString() + "\n got: " + Got.toString();
}

template <Semiring S>
std::string valDetail(typename S::Value Want, typename S::Value Got) {
  return "want: " + valStr<S>(Want) + "  got: " + valStr<S>(Got);
}

const char *policyName(SearchPolicy P) {
  switch (P) {
  case SearchPolicy::Linear:
    return "linear";
  case SearchPolicy::Binary:
    return "binary";
  case SearchPolicy::Gallop:
    return "gallop";
  }
  ETCH_UNREACHABLE("unknown search policy");
}

//===----------------------------------------------------------------------===//
// Runtime-stream legs
//===----------------------------------------------------------------------===//

/// Builds the type-erased runtime stream for an expression, mirroring the
/// placement discipline fuzzValidate derives (and the compiler lowers):
/// Σ contracts the unique indexed level carrying its attribute; ↑ inserts a
/// repeat level at the shallowest slot after `attrsBefore` indexed levels.
template <Semiring S, SearchPolicy P> struct StreamBuilder {
  const FuzzCase &C;
  const Mats<S> &M;
  bool Hashed1D = false; ///< Sparse vectors stream from M.Hv, not M.Sv.

  struct Res {
    DynStream<S> Q;
    FuzzSig Sig;
  };

  Res build(const ExprPtr &E) const {
    switch (E->kind()) {
    case ExprKind::Var: {
      const FuzzTensor *T = C.tensor(E->varName());
      ETCH_ASSERT(T, "expression references an unknown tensor");
      Res R;
      for (Attr A : T->Shp)
        R.Sig.push_back(FuzzLevel{A, false});
      switch (T->Fmt) {
      case FuzzFormat::SparseVec:
        if (Hashed1D)
          R.Q = Erased<S, 1>(M.Hv.at(T->Name).template stream<P>(), 0u);
        else
          R.Q = Erased<S, 1>(M.Sv.at(T->Name).template stream<P>(), 0u);
        break;
      case FuzzFormat::DenseVec:
        R.Q = Erased<S, 1>(M.Dv.at(T->Name).stream(), 0u);
        break;
      case FuzzFormat::Csr:
        R.Q = Erased<S, 2>(M.Csr.at(T->Name).template stream<P>(), 0u);
        break;
      case FuzzFormat::Dcsr:
        R.Q = Erased<S, 2>(M.Dcsr.at(T->Name).template stream<P, P>(), 0u);
        break;
      case FuzzFormat::Csf3:
        R.Q = Erased<S, 3>(M.Csf.at(T->Name).template stream<P>(), 0u);
        break;
      }
      return R;
    }
    case ExprKind::Mul: {
      Res A = build(E->lhs()), B = build(E->rhs());
      return Res{dynMul<S>(A.Q, B.Q), A.Sig};
    }
    case ExprKind::Add: {
      Res A = build(E->lhs()), B = build(E->rhs());
      return Res{dynAdd<S>(A.Q, B.Q), A.Sig};
    }
    case ExprKind::Sum: {
      Res A = build(E->lhs());
      int K = -1;
      for (size_t L = 0; L < A.Sig.size(); ++L)
        if (!A.Sig[L].Contracted && A.Sig[L].A == E->attr()) {
          K = static_cast<int>(L);
          break;
        }
      ETCH_ASSERT(K >= 0, "sum attribute not in the signature");
      Res O;
      O.Q = dynContractAt<S>(A.Q, K);
      O.Sig = A.Sig;
      O.Sig[static_cast<size_t>(K)].Contracted = true;
      return O;
    }
    case ExprKind::Expand: {
      Res A = build(E->lhs());
      int Depth = attrsBefore(fuzzIndexedShape(A.Sig), E->attr());
      size_t K = 0;
      for (int Seen = 0; K < A.Sig.size() && Seen < Depth; ++K)
        if (!A.Sig[K].Contracted)
          ++Seen;
      Res O;
      O.Q = dynExpandAt<S>(A.Q, static_cast<int>(K), C.dimOf(E->attr()));
      O.Sig = A.Sig;
      fuzzSigExpandInsert(O.Sig, E->attr());
      return O;
    }
    case ExprKind::Rename: {
      // Pure re-labelling: the stream is untouched, only the signature's
      // indexed attributes change (extents are equal by validation).
      Res A = build(E->lhs());
      for (FuzzLevel &L : A.Sig) {
        if (L.Contracted)
          continue;
        for (const auto &[From, To] : E->mapping())
          if (L.A == From) {
            L.A = To;
            break;
          }
      }
      return A;
    }
    }
    ETCH_UNREACHABLE("unknown expression kind");
  }
};

template <Semiring S, SearchPolicy P>
void runStreamLegs(const FuzzCase &C, const FuzzTyping &Ty, const Mats<S> &M,
                   ThreadPool &Pool, const KRelation<S> &Want,
                   typename S::Value WantTotal, FuzzReport &Rep,
                   bool Hashed1D = false) {
  std::string Tag = std::string(Hashed1D ? "hstream/" : "stream/") +
                    policyName(P);
  StreamBuilder<S, P> B{C, M, Hashed1D};
  auto R = B.build(C.E);
  ETCH_ASSERT(R.Sig == Ty.Sig, "builder and validator signatures agree");
  uint32_t Mask = fuzzMaskOf(R.Sig);
  ETCH_ASSERT(Mask == dynMask<S>(R.Q), "mask bookkeeping agrees");
  Shape OutSh = fuzzIndexedShape(R.Sig);

  // Mask-aware evaluation (every case).
  KRelation<S> Got = dynEval<S>(R.Q, OutSh);
  if (!relEq<S>(Got, Want))
    reportDiv(Rep, C, Tag + "/eval", relDetail<S>(Want, Got));

  // The library's own evalStream, sound when nothing is contracted.
  if (Mask == 0) {
    KRelation<S> Got2 = std::visit(
        [&OutSh](const auto &E) -> KRelation<S> {
          using T = std::decay_t<decltype(E)>;
          if constexpr (std::is_same_v<T, std::monostate>)
            ETCH_UNREACHABLE("evaluation of an empty stream");
          else
            return evalStream<S>(E, OutSh);
        },
        R.Q);
    if (!relEq<S>(Got2, Want))
      reportDiv(Rep, C, Tag + "/evalStream", relDetail<S>(Want, Got2));
  }

  // The library's sumAll (sound for any mask).
  typename S::Value Tot = dynSumAll<S>(R.Q);
  if (!valEq<S>(Tot, WantTotal))
    reportDiv(Rep, C, Tag + "/sumAll", valDetail<S>(WantTotal, Tot));

  // Parallel drivers need an indexed outermost level to range-partition.
  if ((Mask & 1) == 0 && !R.Sig.empty()) {
    Idx Extent = C.dimOf(R.Sig[0].A);
    for (size_t NC : {size_t(1), size_t(3)}) {
      auto Chunks = partitionDense(Extent, NC);
      auto PTot = dynParallelSumAll<S>(Pool, R.Q, Chunks);
      if (!valEq<S>(PTot, WantTotal))
        reportDiv(Rep, C, Tag + "/psum" + std::to_string(NC),
                  valDetail<S>(WantTotal, PTot));
      KRelation<S> PRel = dynParallelEval<S>(Pool, R.Q, OutSh, Chunks);
      if (!relEq<S>(PRel, Want))
        reportDiv(Rep, C, Tag + "/peval" + std::to_string(NC),
                  relDetail<S>(Want, PRel));
      if (Mask == 0) {
        KRelation<S> PRel2 = std::visit(
            [&](const auto &E) -> KRelation<S> {
              using T = std::decay_t<decltype(E)>;
              if constexpr (std::is_same_v<T, std::monostate>)
                ETCH_UNREACHABLE("evaluation of an empty stream");
              else
                return parallelEvalStream<S>(Pool, E, OutSh, Chunks);
            },
            R.Q);
        if (!relEq<S>(PRel2, Want))
          reportDiv(Rep, C, Tag + "/pevalStream" + std::to_string(NC),
                    relDetail<S>(Want, PRel2));
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// Compiled (VM) legs
//===----------------------------------------------------------------------===//

const ScalarAlgebra *algebraFor(const std::string &Name) {
  if (Name == "f64")
    return &f64Algebra();
  if (Name == "i64")
    return &i64Algebra();
  if (Name == "bool")
    return &boolAlgebra();
  if (Name == "minplus")
    return &minPlusAlgebra();
  return nullptr;
}

/// How the formats matrix re-binds sparse-vector tensors: as stored
/// (None), or overridden to a hashed, compressed, or dense level. All
/// three overrides bind the same sorted snapshot data, so the compiled
/// legs compute over identical inputs.
enum class VecOverride { None, Hashed, Compressed, Dense };

TensorBinding bindingFor(const FuzzTensor &T, SearchPolicy P,
                         VecOverride Ov = VecOverride::None, size_t Nnz = 0) {
  switch (T.Fmt) {
  case FuzzFormat::SparseVec:
    switch (Ov) {
    case VecOverride::None:
    case VecOverride::Compressed:
      break;
    case VecOverride::Hashed:
      return hashedVecBinding(T.Name, T.Shp[0], hashedTabSizeFor(Nnz), P);
    case VecOverride::Dense:
      return denseVecBinding(T.Name, T.Shp[0]);
    }
    return sparseVecBinding(T.Name, T.Shp[0], P);
  case FuzzFormat::DenseVec:
    return denseVecBinding(T.Name, T.Shp[0]);
  case FuzzFormat::Csr:
    return csrBinding(T.Name, T.Shp[0], T.Shp[1], P);
  case FuzzFormat::Dcsr:
    return dcsrBinding(T.Name, T.Shp[0], T.Shp[1], P);
  case FuzzFormat::Csf3:
    return csf3Binding(T.Name, T.Shp[0], T.Shp[1], T.Shp[2], P);
  }
  ETCH_UNREACHABLE("unknown format");
}

template <Semiring S>
void bindArrays(VmMemory &Mem, const FuzzTensor &T, const Mats<S> &M,
                VecOverride Ov = VecOverride::None) {
  using V = StoreT<S>;
  auto PutVals = [&Mem](const std::string &Name, const std::vector<V> &Data) {
    if constexpr (std::is_same_v<typename S::Value, bool>) {
      std::vector<ImpValue> W;
      W.reserve(Data.size());
      for (V X : Data)
        W.push_back(static_cast<bool>(X));
      Mem.setArray(Name, std::move(W));
    } else if constexpr (std::is_same_v<typename S::Value, int64_t>) {
      Mem.setArrayI64(Name, Data);
    } else {
      Mem.setArrayF64(Name, Data);
    }
  };
  auto PutPos = [&Mem](const std::string &Name,
                       const std::vector<size_t> &Pos) {
    Mem.setArrayI64(Name,
                    std::vector<int64_t>(Pos.begin(), Pos.end()));
  };
  switch (T.Fmt) {
  case FuzzFormat::SparseVec: {
    const auto &X = M.Sv.at(T.Name);
    if (Ov == VecOverride::Hashed) {
      const auto &H = M.Hv.at(T.Name);
      Mem.setArrayI64(T.Name + "_pos0",
                      {0, static_cast<int64_t>(H.Crd.size())});
      Mem.setArrayI64(T.Name + "_crd0", H.Crd);
      PutVals(T.Name + "_vals", H.Val);
      int64_t TabSize = hashedTabSizeFor(H.Crd.size());
      auto [Key, Rank] = hashedProbeArrays(H.Crd, TabSize);
      Mem.setArrayI64(T.Name + "_hkey0", Key);
      Mem.setArrayI64(T.Name + "_hpos0", Rank);
      break;
    }
    if (Ov == VecOverride::Dense) {
      // Unset positions hold the semiring zero (+inf under (min,+)).
      std::vector<V> D(static_cast<size_t>(X.Size),
                       static_cast<V>(S::zero()));
      for (size_t Q = 0; Q < X.Crd.size(); ++Q)
        D[static_cast<size_t>(X.Crd[Q])] = X.Val[Q];
      PutVals(T.Name + "_vals", D);
      break;
    }
    Mem.setArrayI64(T.Name + "_pos0",
                    {0, static_cast<int64_t>(X.Crd.size())});
    Mem.setArrayI64(T.Name + "_crd0", X.Crd);
    PutVals(T.Name + "_vals", X.Val);
    break;
  }
  case FuzzFormat::DenseVec: {
    PutVals(T.Name + "_vals", M.Dv.at(T.Name).Val);
    break;
  }
  case FuzzFormat::Csr: {
    const auto &X = M.Csr.at(T.Name);
    PutPos(T.Name + "_pos1", X.Pos);
    Mem.setArrayI64(T.Name + "_crd1", X.Crd);
    PutVals(T.Name + "_vals", X.Val);
    break;
  }
  case FuzzFormat::Dcsr: {
    const auto &X = M.Dcsr.at(T.Name);
    Mem.setArrayI64(T.Name + "_pos0",
                    {0, static_cast<int64_t>(X.RowCrd.size())});
    Mem.setArrayI64(T.Name + "_crd0", X.RowCrd);
    PutPos(T.Name + "_pos1", X.Pos);
    Mem.setArrayI64(T.Name + "_crd1", X.Crd);
    PutVals(T.Name + "_vals", X.Val);
    break;
  }
  case FuzzFormat::Csf3: {
    const auto &X = M.Csf.at(T.Name);
    Mem.setArrayI64(T.Name + "_pos0",
                    {0, static_cast<int64_t>(X.Crd0.size())});
    Mem.setArrayI64(T.Name + "_crd0", X.Crd0);
    PutPos(T.Name + "_pos1", X.Pos0);
    Mem.setArrayI64(T.Name + "_crd1", X.Crd1);
    PutPos(T.Name + "_pos2", X.Pos1);
    Mem.setArrayI64(T.Name + "_crd2", X.Crd2);
    PutVals(T.Name + "_vals", X.Val);
    break;
  }
  }
}

template <Semiring S>
std::optional<typename S::Value> fromImp(const ImpValue &V) {
  if constexpr (std::is_same_v<typename S::Value, bool>) {
    if (const bool *B = std::get_if<bool>(&V))
      return *B;
  } else if constexpr (std::is_same_v<typename S::Value, int64_t>) {
    if (const int64_t *I = std::get_if<int64_t>(&V))
      return *I;
  } else {
    if (const double *D = std::get_if<double>(&V))
      return *D;
  }
  return std::nullopt;
}

/// Bit-level ImpValue equality: f64 compares as bit patterns (the two VMs
/// promise bit-identical results, so even NaN payloads must agree).
bool impBitsEq(const ImpValue &A, const ImpValue &B) {
  if (impTypeOf(A) != impTypeOf(B))
    return false;
  if (const double *X = std::get_if<double>(&A)) {
    uint64_t XB, YB;
    std::memcpy(&XB, X, sizeof(XB));
    std::memcpy(&YB, &std::get<double>(B), sizeof(YB));
    return XB == YB;
  }
  return A == B;
}

std::string impToStr(const ImpValue &V) {
  return EExpr::constant(V)->toString();
}

/// Checks one executor's "out" against the oracle total, reporting under
/// \p Tag. Returns the scalar read back (nullopt when missing/mistyped).
template <Semiring S>
std::optional<ImpValue> checkVmOut(const FuzzCase &C, VmMemory &Mem,
                                   const VmRunResult &R,
                                   typename S::Value WantTotal,
                                   const std::string &Tag, FuzzReport &Rep) {
  if (!R.ok()) {
    reportDiv(Rep, C, Tag, "vm error: " + *R.Error);
    return std::nullopt;
  }
  auto Out = Mem.getScalar("out");
  if (!Out) {
    reportDiv(Rep, C, Tag, "program produced no 'out' scalar");
    return std::nullopt;
  }
  auto Got = fromImp<S>(*Out);
  if (!Got) {
    reportDiv(Rep, C, Tag, "'out' has the wrong scalar type");
    return std::nullopt;
  }
  if (!valEq<S>(*Got, WantTotal))
    reportDiv(Rep, C, Tag, valDetail<S>(WantTotal, *Got));
  return Out;
}

/// Runs the three compiled legs (O0/linear, O1/binary, O2/gallop) on tree
/// and/or bytecode executors. \p Ov overrides every sparse-vector tensor's
/// binding (formats matrix); \p FormTag prefixes the leg tags ("h"/"c"/"d"
/// -> "hvm/O1", "hbvm/O1", ...). When \p OutByOpt is non-null, the output
/// scalar of each opt level is stored there for cross-form bit comparison.
template <Semiring S>
void runVmLegs(const FuzzCase &C, const Mats<S> &M,
               typename S::Value WantTotal, VmBackend Backend,
               FuzzReport &Rep, VecOverride Ov = VecOverride::None,
               const char *FormTag = "",
               std::optional<ImpValue> *OutByOpt = nullptr) {
  const ScalarAlgebra *Alg = algebraFor(C.SemiringName);
  ETCH_ASSERT(Alg, "dispatch guarantees a known semiring");
  const struct {
    int Opt;
    SearchPolicy P;
  } Legs[] = {{0, SearchPolicy::Linear},
              {1, SearchPolicy::Binary},
              {2, SearchPolicy::Gallop}};
  bool Tree = Backend != VmBackend::Bytecode;
  bool Bc = Backend == VmBackend::Bytecode || Backend == VmBackend::Both;
  bool Nat = Backend == VmBackend::Native;
  for (const auto &Leg : Legs) {
    std::string Level = "O" + std::to_string(Leg.Opt);
    LowerCtx Ctx;
    Ctx.Alg = Alg;
    Ctx.OptLevel = Leg.Opt;
    for (const auto &[A, N] : C.Dims)
      Ctx.setDim(A, N);
    for (const FuzzTensor &T : C.Tensors) {
      size_t Nnz = T.Fmt == FuzzFormat::SparseVec && Ov != VecOverride::None
                       ? M.Hv.at(T.Name).nnz()
                       : 0;
      Ctx.bind(bindingFor(T, Leg.P, Ov, Nnz));
    }
    PRef Prog = compileFullContraction(Ctx, C.E, "out");

    VmRunResult TreeR, BcR;
    std::optional<ImpValue> TreeOut, BcOut;
    if (Tree) {
      VmMemory Mem;
      for (const FuzzTensor &T : C.Tensors)
        bindArrays<S>(Mem, T, M, Ov);
      TreeR = vmRun(Prog, Mem);
      TreeOut = checkVmOut<S>(C, Mem, TreeR, WantTotal,
                              FormTag + ("vm/" + Level), Rep);
    }
    if (Bc) {
      std::string Tag = FormTag + ("bvm/" + Level);
      BytecodeProgram BC = compileBytecode(Prog);
      if (!BC.ok()) {
        reportDiv(Rep, C, Tag, "bytecode compile error: " + BC.CompileError);
        continue;
      }
      VmMemory Mem;
      for (const FuzzTensor &T : C.Tensors)
        bindArrays<S>(Mem, T, M, Ov);
      BcR = bytecodeRun(BC, Mem);
      BcOut = checkVmOut<S>(C, Mem, BcR, WantTotal, Tag, Rep);
    }
    VmRunResult NatR;
    std::optional<ImpValue> NatOut;
    if (Nat) {
      std::string Tag = FormTag + ("nvm/" + Level);
      // Step-counting kernels so the strict cross-check below covers the
      // budget semantics too. The driver has already verified a toolchain
      // exists, so any failure here is an emitter/jit gap worth reporting.
      JitOptions JO;
      JO.CountSteps = true;
      std::string JitErr;
      NativeKernelRef K = jitCompile(Prog, JO, &JitErr);
      if (!K) {
        // The source-size cap is a designed decline (production falls
        // back to the bytecode VM), not an emitter gap — skip the leg.
        if (JitErr.rfind(JitSourceTooLargePrefix, 0) != 0)
          reportDiv(Rep, C, Tag, "jit compile error: " + JitErr);
        continue;
      }
      VmMemory Mem;
      for (const FuzzTensor &T : C.Tensors)
        bindArrays<S>(Mem, T, M, Ov);
      NatR = K->run(Mem);
      NatOut = checkVmOut<S>(C, Mem, NatR, WantTotal, Tag, Rep);
    }
    if (OutByOpt)
      OutByOpt[Leg.Opt] = Tree ? TreeOut : BcOut;
    // Direct tree ≡ bytecode cross-check, stricter than the oracle
    // comparison: identical steps, identical error text, bit-identical
    // output scalar.
    if (Tree && Bc) {
      std::string Tag = FormTag + ("tree-vs-bvm/" + Level);
      if (TreeR.Steps != BcR.Steps)
        reportDiv(Rep, C, Tag,
                  "step counts differ: tree=" + std::to_string(TreeR.Steps) +
                      " bytecode=" + std::to_string(BcR.Steps));
      std::string TreeErr = TreeR.Error ? *TreeR.Error : "";
      std::string BcErr = BcR.Error ? *BcR.Error : "";
      if (TreeErr != BcErr)
        reportDiv(Rep, C, Tag,
                  "errors differ: tree='" + TreeErr + "' bytecode='" +
                      BcErr + "'");
      if (TreeOut && BcOut && !impBitsEq(*TreeOut, *BcOut))
        reportDiv(Rep, C, Tag,
                  "'out' differs bit-wise: tree=" + impToStr(*TreeOut) +
                      " bytecode=" + impToStr(*BcOut));
    }
    // Same strictness for the native backend: identical steps, identical
    // error text, bit-identical output scalar versus the tree VM.
    if (Tree && Nat) {
      std::string Tag = FormTag + ("tree-vs-nvm/" + Level);
      if (TreeR.Steps != NatR.Steps)
        reportDiv(Rep, C, Tag,
                  "step counts differ: tree=" + std::to_string(TreeR.Steps) +
                      " native=" + std::to_string(NatR.Steps));
      std::string TreeErr = TreeR.Error ? *TreeR.Error : "";
      std::string NatErr = NatR.Error ? *NatR.Error : "";
      if (TreeErr != NatErr)
        reportDiv(Rep, C, Tag,
                  "errors differ: tree='" + TreeErr + "' native='" + NatErr +
                      "'");
      if (TreeOut && NatOut && !impBitsEq(*TreeOut, *NatOut))
        reportDiv(Rep, C, Tag,
                  "'out' differs bit-wise: tree=" + impToStr(*TreeOut) +
                      " native=" + impToStr(*NatOut));
    }
  }
}

//===----------------------------------------------------------------------===//
// Per-semiring driver
//===----------------------------------------------------------------------===//

template <Semiring S>
void runTyped(const FuzzCase &C, const FuzzTyping &Ty, ThreadPool &Pool,
              VmBackend Backend, FuzzReport &Rep) {
  ValueContext<S> Inputs;
  for (const FuzzTensor &T : C.Tensors)
    Inputs.emplace(T.Name, fuzzTensorRelation<S>(T));
  KRelation<S> Want = densifyAll<S>(evalT<S>(C.E, Inputs), C);
  typename S::Value WantTotal = S::zero();
  for (const auto &[Tu, V] : Want.entries())
    WantTotal = S::add(WantTotal, V);

  Mats<S> M = materialize<S>(C);
  runStreamLegs<S, SearchPolicy::Linear>(C, Ty, M, Pool, Want, WantTotal,
                                         Rep);
  runStreamLegs<S, SearchPolicy::Binary>(C, Ty, M, Pool, Want, WantTotal,
                                         Rep);
  runStreamLegs<S, SearchPolicy::Gallop>(C, Ty, M, Pool, Want, WantTotal,
                                         Rep);
  runVmLegs<S>(C, M, WantTotal, Backend, Rep);
}

/// The dense override materializes the full extent; beyond this it is
/// skipped (sparse vectors over huge index spaces are exactly the inputs
/// hashing exists for).
constexpr Idx MaxDenseOverrideExtent = Idx(1) << 16;

template <Semiring S>
void runFormatsTyped(const FuzzCase &C, const FuzzTyping &Ty,
                     ThreadPool &Pool, VmBackend Backend, FuzzReport &Rep) {
  ValueContext<S> Inputs;
  for (const FuzzTensor &T : C.Tensors)
    Inputs.emplace(T.Name, fuzzTensorRelation<S>(T));
  KRelation<S> Want = densifyAll<S>(evalT<S>(C.E, Inputs), C);
  typename S::Value WantTotal = S::zero();
  for (const auto &[Tu, V] : Want.entries())
    WantTotal = S::add(WantTotal, V);

  Mats<S> M = materialize<S>(C);
  addHashed<S>(M, C);

  // Hashed runtime streams (sorted snapshot iterate, probe-first skip)
  // against the oracle, per policy.
  runStreamLegs<S, SearchPolicy::Linear>(C, Ty, M, Pool, Want, WantTotal,
                                         Rep, /*Hashed1D=*/true);
  runStreamLegs<S, SearchPolicy::Binary>(C, Ty, M, Pool, Want, WantTotal,
                                         Rep, /*Hashed1D=*/true);
  runStreamLegs<S, SearchPolicy::Gallop>(C, Ty, M, Pool, Want, WantTotal,
                                         Rep, /*Hashed1D=*/true);

  // Compiled legs with every sparse vector re-bound hashed / compressed /
  // dense. Hashed and compressed iterate the same sorted snapshot, so
  // their outputs must agree bit-for-bit; dense changes the loop structure
  // and is held to the oracle tolerance only.
  std::optional<ImpValue> HOut[3], COut[3];
  runVmLegs<S>(C, M, WantTotal, Backend, Rep, VecOverride::Hashed, "h",
               HOut);
  runVmLegs<S>(C, M, WantTotal, Backend, Rep, VecOverride::Compressed, "c",
               COut);
  bool DenseOk = true;
  for (const FuzzTensor &T : C.Tensors)
    if (T.Fmt == FuzzFormat::SparseVec &&
        C.dimOf(T.Shp[0]) > MaxDenseOverrideExtent)
      DenseOk = false;
  if (DenseOk)
    runVmLegs<S>(C, M, WantTotal, Backend, Rep, VecOverride::Dense, "d");

  for (int K = 0; K < 3; ++K)
    if (HOut[K] && COut[K] && !impBitsEq(*HOut[K], *COut[K]))
      reportDiv(Rep, C, "hashed-vs-compressed/O" + std::to_string(K),
                "'out' differs bit-wise: hashed=" + impToStr(*HOut[K]) +
                    " compressed=" + impToStr(*COut[K]));
}

} // namespace

std::string FuzzReport::toString() const {
  if (Invalid)
    return "invalid: " + ValidationError;
  if (Divs.empty())
    return "ok";
  std::ostringstream Os;
  Os << Divs.size() << " divergence(s)";
  for (const FuzzDivergence &D : Divs)
    Os << "\n[" << D.Leg << "] " << D.Detail;
  return Os.str();
}

FuzzReport etch::runFuzzCase(const FuzzCase &C, ThreadPool &Pool,
                             VmBackend Backend) {
  FuzzReport Rep;
  std::string Err;
  auto Ty = fuzzValidate(C, &Err);
  if (!Ty) {
    Rep.Invalid = true;
    Rep.ValidationError = Err;
    return Rep;
  }
  if (C.SemiringName == "f64")
    runTyped<F64Semiring>(C, *Ty, Pool, Backend, Rep);
  else if (C.SemiringName == "i64")
    runTyped<I64Semiring>(C, *Ty, Pool, Backend, Rep);
  else if (C.SemiringName == "bool")
    runTyped<BoolSemiring>(C, *Ty, Pool, Backend, Rep);
  else if (C.SemiringName == "minplus")
    runTyped<MinPlusSemiring>(C, *Ty, Pool, Backend, Rep);
  else {
    Rep.Invalid = true;
    Rep.ValidationError = "unknown semiring '" + C.SemiringName + "'";
  }
  return Rep;
}

namespace {

template <Semiring S> FuzzTotal oracleTotalTyped(const FuzzCase &C) {
  ValueContext<S> Inputs;
  for (const FuzzTensor &T : C.Tensors)
    Inputs.emplace(T.Name, fuzzTensorRelation<S>(T));
  KRelation<S> Want = densifyAll<S>(evalT<S>(C.E, Inputs), C);
  typename S::Value Total = S::zero();
  for (const auto &[Tu, V] : Want.entries())
    Total = S::add(Total, V);
  FuzzTotal R;
  R.Text = valStr<S>(Total);
  R.Num = static_cast<double>(Total);
  return R;
}

} // namespace

std::optional<FuzzTotal> etch::fuzzOracleTotal(const FuzzCase &C) {
  if (!fuzzValidate(C))
    return std::nullopt;
  if (C.SemiringName == "f64")
    return oracleTotalTyped<F64Semiring>(C);
  if (C.SemiringName == "i64")
    return oracleTotalTyped<I64Semiring>(C);
  if (C.SemiringName == "bool")
    return oracleTotalTyped<BoolSemiring>(C);
  if (C.SemiringName == "minplus")
    return oracleTotalTyped<MinPlusSemiring>(C);
  return std::nullopt;
}

FuzzReport etch::runFuzzFormats(const FuzzCase &C, ThreadPool &Pool,
                                VmBackend Backend) {
  FuzzReport Rep;
  std::string Err;
  auto Ty = fuzzValidate(C, &Err);
  if (!Ty) {
    Rep.Invalid = true;
    Rep.ValidationError = Err;
    return Rep;
  }
  bool AnySparseVec = false;
  for (const FuzzTensor &T : C.Tensors)
    AnySparseVec = AnySparseVec || T.Fmt == FuzzFormat::SparseVec;
  if (!AnySparseVec)
    return Rep;
  if (C.SemiringName == "f64")
    runFormatsTyped<F64Semiring>(C, *Ty, Pool, Backend, Rep);
  else if (C.SemiringName == "i64")
    runFormatsTyped<I64Semiring>(C, *Ty, Pool, Backend, Rep);
  else if (C.SemiringName == "bool")
    runFormatsTyped<BoolSemiring>(C, *Ty, Pool, Backend, Rep);
  else if (C.SemiringName == "minplus")
    runFormatsTyped<MinPlusSemiring>(C, *Ty, Pool, Backend, Rep);
  else {
    Rep.Invalid = true;
    Rep.ValidationError = "unknown semiring '" + C.SemiringName + "'";
  }
  return Rep;
}

namespace {

ThreadPool &sharedFuzzPool() {
  // Shared across calls: the shrinker invokes the executor hundreds of
  // times per campaign and must not pay thread spawn/join each time.
  static ThreadPool Pool(3);
  return Pool;
}

} // namespace

FuzzReport etch::runFuzzCase(const FuzzCase &C, VmBackend Backend) {
  return runFuzzCase(C, sharedFuzzPool(), Backend);
}

FuzzReport etch::runFuzzFormats(const FuzzCase &C, VmBackend Backend) {
  return runFuzzFormats(C, sharedFuzzPool(), Backend);
}
