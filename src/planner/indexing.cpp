//===- planner/indexing.cpp - Access indexing maps ------------------------===//
//
// Part of the etch project.
//
//===----------------------------------------------------------------------===//

#include "planner/indexing.h"

#include "support/assert.h"

#include <sstream>

namespace etch {

const char *accessPatternName(AccessPattern P) {
  switch (P) {
  case AccessPattern::Sequential:
    return "sequential";
  case AccessPattern::Strided:
    return "strided";
  case AccessPattern::Gather:
    break;
  }
  return "gather";
}

namespace {

const char *kindName(LevelSpec::Kind K) {
  switch (K) {
  case LevelSpec::Dense:
    return "dense";
  case LevelSpec::Hashed:
    return "hashed";
  case LevelSpec::Compressed:
    break;
  }
  return "compressed";
}

/// The plan level for attribute \p A of term \p TI, or nullptr when the
/// term does not iterate it.
const PlanLevel *levelAt(const Plan &P, size_t TI, Attr A) {
  for (const PlanLevel &L : P.TermLevels[TI])
    if (L.A == A)
      return &L;
  return nullptr;
}

/// The storage kind the *driving* access exposes at plan level \p L: the
/// coordinates every located access at this loop must follow. Expand-only
/// levels enumerate their extent, which is dense iteration.
LevelSpec::Kind driverKind(const Plan &P, const PlanLevel &L) {
  if (L.Driver.empty())
    return LevelSpec::Dense;
  for (const PlanAccess &A : P.Accesses) {
    if (A.bindName() != L.Driver)
      continue;
    for (size_t I = 0; I < A.Used.size(); ++I)
      if (A.Used[I] == L.A)
        return A.Levels[I].K;
  }
  ETCH_ASSERT(false, "indexing: driver access missing its level");
  return LevelSpec::Dense;
}

} // namespace

const AccessIndexing *IndexingInfo::access(const std::string &BindName) const {
  for (const AccessIndexing &A : Accesses)
    if (A.BindName == BindName)
      return &A;
  return nullptr;
}

IndexingInfo analyzeIndexing(const PlanQuery &Q, const Plan &P,
                             const PlanOptions &O) {
  IndexingInfo Info;
  double GatherVisits = 0.0, StridedVisits = 0.0;

  for (const PlanAccess &Acc : P.Accesses) {
    // The term whose loop nest this access participates in (accesses are
    // deduplicated per (tensor, attribute mapping), so the classification
    // is identical wherever the factor recurs).
    size_t TI = Q.Terms.size();
    for (size_t T = 0; T < Q.Terms.size() && TI == Q.Terms.size(); ++T)
      for (const PlanFactor &F : Q.Terms[T].Factors)
        if (F.Tensor == Acc.Tensor && F.Query == Acc.Stored) {
          TI = T;
          break;
        }
    ETCH_ASSERT(TI < Q.Terms.size(), "indexing: access without a term");

    AccessIndexing AI;
    AI.BindName = Acc.bindName();

    // The symbolic map, XLA-style: the term's loop variables (plan order)
    // on the left, this access's used coordinates on the right.
    Shape TermAttrs = Q.Terms[TI].allAttrs();
    std::ostringstream Map;
    Map << "(";
    bool First = true;
    for (Attr A : P.Order) {
      if (!shapeContains(TermAttrs, A))
        continue;
      Map << (First ? "" : ", ") << A.name();
      First = false;
    }
    Map << ") -> (";
    for (size_t L = 0; L < Acc.Used.size(); ++L)
      Map << (L ? ", " : "") << Acc.Used[L].name();
    Map << ")";
    AI.Map = Map.str();

    for (size_t LI = 0; LI < Acc.Used.size(); ++LI) {
      LevelIndexing LX;
      LX.A = Acc.Used[LI];
      LX.Kind = Acc.Levels[LI].K;
      const PlanLevel *PL = levelAt(P, TI, LX.A);
      ETCH_ASSERT(PL, "indexing: access level outside its term's loops");
      LX.Driving = !PL->Driver.empty() && PL->Driver == AI.BindName;
      if (LX.Driving) {
        // Drives the intersection: walks its own pos/crd/val storage
        // monotonically, whatever the level kind.
        LX.Pattern = AccessPattern::Sequential;
      } else if (LX.Kind == LevelSpec::Dense) {
        // Located dense level: the driver supplies the coordinate. A
        // compressed/hashed driver jumps through its crd array, so the
        // located offsets are data-dependent — a gather. A dense driver
        // advances the coordinate by one per visit; the located offset
        // then moves by the product of the inner dense extents (> 1 for
        // an outer level of dense value storage — a constant stride), or
        // walks an inner pos array at unit stride.
        if (driverKind(P, *PL) != LevelSpec::Dense) {
          LX.Pattern = AccessPattern::Gather;
        } else {
          int64_t Stride = 1;
          bool AllDenseInner = true;
          for (size_t In = LI + 1; In < Acc.Used.size(); ++In) {
            if (Acc.Levels[In].K != LevelSpec::Dense)
              AllDenseInner = false;
            else
              Stride *= Q.dimOf(Acc.Used[In]);
          }
          LX.Stride = AllDenseInner ? Stride : 1;
          LX.Pattern = LX.Stride > 1 ? AccessPattern::Strided
                                     : AccessPattern::Sequential;
        }
      } else {
        // Located compressed level: every visit searches its fiber for
        // the driver's coordinate. Located hashed level: every visit
        // probes the table. Both touch data-dependent positions.
        LX.Pattern = AccessPattern::Gather;
      }

      switch (LX.Pattern) {
      case AccessPattern::Gather:
        GatherVisits += PL->CumIters;
        break;
      case AccessPattern::Strided:
        StridedVisits += PL->CumIters;
        break;
      case AccessPattern::Sequential:
        break;
      }
      AI.Levels.push_back(LX);
    }
    Info.Accesses.push_back(std::move(AI));
  }

  Info.AccessCost =
      O.GatherVisitCost * GatherVisits + O.StridedVisitCost * StridedVisits;
  return Info;
}

std::string IndexingInfo::toString() const {
  std::ostringstream OS;
  OS << "indexing:\n";
  for (const AccessIndexing &A : Accesses) {
    OS << "  " << A.BindName << ": " << A.Map << ";";
    for (size_t L = 0; L < A.Levels.size(); ++L) {
      const LevelIndexing &LX = A.Levels[L];
      OS << (L ? ", " : " ") << LX.A.name() << " " << kindName(LX.Kind)
         << " " << accessPatternName(LX.Pattern);
      if (LX.Pattern == AccessPattern::Strided)
        OS << "(x" << LX.Stride << ")";
      if (LX.Driving)
        OS << " [drives]";
    }
    OS << "\n";
  }
  return OS.str();
}

} // namespace etch
