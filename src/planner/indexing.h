//===- planner/indexing.h - Access indexing maps ----------------*- C++ -*-===//
//
// Part of the etch project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Indexing-map analysis over realized plans, after XLA's HLO indexing
/// analysis (SNIPPETS.md): for every physical access of a plan, derive the
/// symbolic map from the fused loop nest's iteration variables to the
/// access's stored coordinates — e.g. `(i, j, k) -> (j, k)` for factor
/// B(j,k) under order i < j < k — and classify how each storage level is
/// touched as the loops advance:
///
///   - *sequential*: the level walks its own storage monotonically (it
///     drives the intersection at its loop), or it is a dense level whose
///     coordinate is supplied by a dense driver at unit stride;
///   - *strided*: a dense level located at a constant stride > 1 — an
///     outer dense level of dense value storage whose inner extents
///     separate consecutive visits;
///   - *gather*: the visit order is data-dependent — a dense level whose
///     coordinates come from a compressed/hashed driver (indices jump with
///     the driver's crd array), or any non-driving compressed/hashed level
///     (each visit searches or probes its fiber).
///
/// The classification prices an access-pattern term in `PlanCost`
/// (`Plan::AccessCost`, rendered by EXPLAIN): gathers and wide strides
/// touch memory the prefetcher cannot predict, so two orders with equal
/// iteration counts no longer tie when one of them streams its operands.
///
//===----------------------------------------------------------------------===//

#ifndef ETCH_PLANNER_INDEXING_H
#define ETCH_PLANNER_INDEXING_H

#include "planner/plan.h"

#include <cstdint>
#include <string>
#include <vector>

namespace etch {

/// How one storage level is touched as the fused loops advance.
enum class AccessPattern { Sequential, Strided, Gather };

const char *accessPatternName(AccessPattern P);

/// Classification of one stored level of one access.
struct LevelIndexing {
  Attr A;                   ///< The loop attribute bound to this level.
  LevelSpec::Kind Kind = LevelSpec::Compressed;
  bool Driving = false;     ///< This access drives the intersection at A.
  AccessPattern Pattern = AccessPattern::Sequential;
  /// Elements between consecutive visits when Pattern is Strided (the
  /// product of the inner dense extents); 1 for Sequential, unknowable
  /// (data-dependent) for Gather.
  int64_t Stride = 1;
};

/// One access's symbolic indexing map plus per-level classification.
struct AccessIndexing {
  std::string BindName; ///< PlanAccess::bindName() of the access.
  /// The output→input map in XLA notation: loop attrs of the term order on
  /// the left, the access's used coordinates on the right.
  std::string Map;
  std::vector<LevelIndexing> Levels;
};

/// The full analysis of a plan: per-access maps and the derived
/// access-pattern cost term.
struct IndexingInfo {
  std::vector<AccessIndexing> Accesses;
  /// Sum over levels of (estimated visits × pattern penalty); the term
  /// `planForOrder` stores into `Plan::AccessCost`.
  double AccessCost = 0.0;

  /// Deterministic rendering (golden-tested); the block EXPLAIN appends.
  std::string toString() const;

  const AccessIndexing *access(const std::string &BindName) const;
};

/// Analyzes \p P (as produced by planForOrder for \p Q): derives every
/// access's indexing map, classifies each level, and prices the pattern
/// term with \p O's penalties. Deterministic — `Plan::explain` recomputes
/// it rather than storing it.
IndexingInfo analyzeIndexing(const PlanQuery &Q, const Plan &P,
                             const PlanOptions &O = {});

} // namespace etch

#endif // ETCH_PLANNER_INDEXING_H
