//===- support/benchjson.h - Machine-readable bench telemetry --*- C++ -*-===//
//
// Part of the etch project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A tiny JSON emitter for the figure-sweep benchmark drivers (no external
/// dependencies). Each driver collects `{bench, config, threads,
/// best_seconds}` rows and, when run with `--json <path>`, writes them as a
/// JSON object `{"host": {...}, "rows": [...]}` so the performance
/// trajectory is machine-trackable across PRs; the checked-in
/// `bench/results/BENCH_*.json` files are produced this way. The host
/// block records the cpu model and core count, so checked-in trajectories
/// from different recording machines are comparable. Also hosts the shared
/// `--json` / `--threads` argv parsing used by those drivers.
///
//===----------------------------------------------------------------------===//

#ifndef ETCH_SUPPORT_BENCHJSON_H
#define ETCH_SUPPORT_BENCHJSON_H

#include <string>
#include <vector>

namespace etch {

/// Accumulates benchmark result rows and renders them as a JSON array.
class BenchJson {
public:
  /// Appends one row.
  void add(const std::string &Bench, const std::string &Config, int Threads,
           double BestSeconds);

  /// Appends one row carrying the planner's cost-model estimate for the
  /// configuration, so predicted cost lands next to measured time in the
  /// tracked JSON ("planner_cost").
  void add(const std::string &Bench, const std::string &Config, int Threads,
           double BestSeconds, double PlannerCost);

  /// Appends one row additionally carrying the access-pattern term of the
  /// cost ("planner_access_cost", planner/indexing.h).
  void add(const std::string &Bench, const std::string &Config, int Threads,
           double BestSeconds, double PlannerCost, double AccessCost);

  size_t size() const { return Rows.size(); }

  /// Renders `{"host": {...}, "rows": [...]}`.
  std::string toJson() const;

  /// The host-metadata block alone (cpu model from /proc/cpuinfo, core
  /// count) as a JSON object literal.
  static std::string hostJson();

  /// Writes toJson() to \p Path; returns false (with a message on stderr)
  /// if the file cannot be opened.
  bool writeFile(const std::string &Path) const;

private:
  struct Row {
    std::string Bench, Config;
    int Threads;
    double BestSeconds;
    double PlannerCost;
    bool HasCost;
    double AccessCost;
    bool HasAccessCost;
  };
  std::vector<Row> Rows;
};

/// Options common to the figure-sweep drivers.
struct BenchOptions {
  std::string JsonPath;             ///< Empty: no JSON output.
  std::vector<int> Threads = {1, 2, 4, 8}; ///< Thread counts to sweep.
  int Reps = 3;                     ///< Repetitions per timeBest sample.
};

/// Parses `--json <path>`, `--threads <comma-list>`, and `--reps <n>` from
/// argv; unknown arguments abort with a usage message.
BenchOptions parseBenchArgs(int Argc, char **Argv);

} // namespace etch

#endif // ETCH_SUPPORT_BENCHJSON_H
