//===- servebench/servebench.cpp - Serve-path benchmark driver -----------===//
//
// Part of the etch project.
//
//===----------------------------------------------------------------------===//
//
// One process of the serve-path benchmark (see README.md beside this file;
// `run.py` orchestrates the processes and prints the result). Usage:
//
//   servebench --workload W --seed N --seconds S --mode M --jit-dir DIR
//              [--spans FILE] [--rounds N]
//
// Workloads: serve_hot, read_after_write, view_maintain. Modes:
//
//   serve   sets up (timed), then drives `ContractionService` in a closed
//           loop for S seconds (or N write rounds) with tracing off,
//           checking every answer against the benchmark's own exact
//           reference; reports the raw per-call latencies and the deltas of
//           the service's counter structs over the window;
//   replay  rebuilds the same state on a catalog, plan cache and
//           maintenance driver owned by this program and replays the same
//           operation stream by composing the public functions the service
//           uses, recording one span per layer call (written to FILE).
//
// Every value written to a tensor is a small integer, so every f64 sum is
// exact and each answer can be compared bit for bit with the reference
// below, which never calls the compiler under test. The last line of
// stdout is one JSON object; the exit code is nonzero on any wrong answer.
//
//===----------------------------------------------------------------------===//

#include "ivm/maintain.h"
#include "planner/plan.h"
#include "planner/realize.h"
#include "serve/service.h"
#include "support/benchjson.h"
#include "support/rng.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include <sys/resource.h>

using namespace etch;

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

bool bitsEq(double A, double B) {
  return std::memcmp(&A, &B, sizeof(double)) == 0;
}

/// Median of \p V (0 when empty).
double median(std::vector<double> V) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  size_t H = V.size() / 2;
  return V.size() % 2 ? V[H] : (V[H - 1] + V[H]) / 2;
}

std::string fmtNum(double X) {
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%.17g", X);
  return Buf;
}

/// A flat JSON object built field by field.
struct JsonObj {
  std::string S;
  JsonObj &add(const std::string &K, const std::string &RawValue) {
    S += (S.empty() ? "" : ", ") + ("\"" + K + "\": ") + RawValue;
    return *this;
  }
  JsonObj &num(const std::string &K, double X) { return add(K, fmtNum(X)); }
  JsonObj &str(const std::string &K, const std::string &V) {
    std::string E;
    for (char C : V)
      if (C == '"' || C == '\\')
        E += std::string("\\") + C;
      else if (static_cast<unsigned char>(C) >= 0x20)
        E += C;
    return add(K, "\"" + E + "\"");
  }
  std::string str() const { return "{" + S + "}"; }
};

//===----------------------------------------------------------------------===//
// Inputs and the exact reference
//===----------------------------------------------------------------------===//

constexpr Idx N = 2000;           // Every attribute's extent.
constexpr size_t ANnz = 40000;    // Base nnz of the written matrix A.
constexpr size_t GraphEdges = 8000; // Edges of the triangle graph.

Attr attrI() { return Attr::named("sbench_i"); }
Attr attrJ() { return Attr::named("sbench_j"); }
Attr attrK() { return Attr::named("sbench_k"); }

/// Integer weight in [1, Hi]: keeps every sum the kernels form exact.
double intValue(Rng &R, uint64_t Hi) {
  return static_cast<double>(1 + R.nextBelow(Hi));
}

CsrMatrix<double> intCsr(Rng &R, size_t Nnz, uint64_t Hi) {
  std::vector<CooEntry<double>> Coo;
  for (uint64_t C : R.sampleDistinctSorted(Nnz, uint64_t(N) * uint64_t(N)))
    Coo.push_back({static_cast<Idx>(C / N), static_cast<Idx>(C % N),
                   intValue(R, Hi)});
  return CsrMatrix<double>::fromCoo(N, N, std::move(Coo));
}

SparseVector<double> intSparse(Rng &R, size_t Nnz) {
  SparseVector<double> V(N);
  for (uint64_t C : R.sampleDistinctSorted(Nnz, uint64_t(N)))
    V.push(static_cast<Idx>(C), intValue(R, 7));
  return V;
}

std::vector<double> densify(const SparseVector<double> &V) {
  std::vector<double> D(static_cast<size_t>(V.Size), 0.0);
  for (size_t K = 0; K < V.Crd.size(); ++K)
    D[static_cast<size_t>(V.Crd[K])] = V.Val[K];
  return D;
}

/// The generated catalog contents. Only the seed decides them.
struct Inputs {
  CsrMatrix<double> A, G;
  SparseVector<double> X{N}, Y{N}, Z{N}, W{N};
  DenseVector<double> D{N};

  explicit Inputs(uint64_t Seed) {
    Rng R(Seed * 0x9e3779b97f4a7c15ULL + 1);
    A = intCsr(R, ANnz, 7);
    G = intCsr(R, GraphEdges, 3);
    X = intSparse(R, 400);
    Y = intSparse(R, 600);
    Z = intSparse(R, 600);
    W = intSparse(R, 600);
    for (double &V : D.Val)
      V = intValue(R, 7);
  }
};

/// The query shapes, named as the per-layer kernel metrics name them.
struct ShapeDef {
  const char *Name;
  std::vector<std::string> Tensors;
};
const std::vector<ShapeDef> &shapes() {
  static const std::vector<ShapeDef> S = {
      {"xd", {"x", "d"}},  {"yzw", {"y", "z", "w"}}, {"Ad", {"A", "d"}},
      {"Ax", {"A", "x"}},  {"RST", {"R", "S", "T"}}};
  return S;
}
size_t shapeIndex(const std::string &Name) {
  for (size_t I = 0; I < shapes().size(); ++I)
    if (Name == shapes()[I].Name)
      return I;
  std::fprintf(stderr, "servebench: unknown shape %s\n", Name.c_str());
  std::exit(2);
}

/// Exact running reference for every shape and view, computed by plain
/// loops over the generated data and maintained under writes with the
/// same integer arithmetic (so it stays exact).
class Model {
public:
  explicit Model(const Inputs &In)
      : XD(densify(In.X)), DD(In.D.Val) {
    for (Idx R = 0; R < N; ++R)
      for (size_t Q = In.A.Pos[size_t(R)]; Q < In.A.Pos[size_t(R) + 1]; ++Q)
        set(R, In.A.Crd[Q], In.A.Val[Q]);
    std::vector<double> YD = densify(In.Y), ZD = densify(In.Z),
                        WD = densify(In.W);
    for (size_t I = 0; I < size_t(N); ++I) {
      Xd += XD[I] * DD[I];
      Yzw += YD[I] * ZD[I] * WD[I];
    }
    // Triangles Σ G(i,j)·G(j,k)·G(i,k): row i scattered into a dense
    // array, then every 2-path i→j→k probes it.
    const CsrMatrix<double> &G = In.G;
    std::vector<double> Row(static_cast<size_t>(N), 0.0);
    for (Idx I = 0; I < N; ++I) {
      for (size_t Q = G.Pos[size_t(I)]; Q < G.Pos[size_t(I) + 1]; ++Q)
        Row[size_t(G.Crd[Q])] = G.Val[Q];
      for (size_t Q = G.Pos[size_t(I)]; Q < G.Pos[size_t(I) + 1]; ++Q) {
        Idx J = G.Crd[Q];
        for (size_t P = G.Pos[size_t(J)]; P < G.Pos[size_t(J) + 1]; ++P)
          Rst += G.Val[Q] * G.Val[P] * Row[size_t(G.Crd[P])];
      }
      for (size_t Q = G.Pos[size_t(I)]; Q < G.Pos[size_t(I) + 1]; ++Q)
        Row[size_t(G.Crd[Q])] = 0.0;
    }
  }

  /// Folds one batch in exactly as the catalog does: duplicates sum, and
  /// a coordinate whose weight cancels to zero is no longer stored.
  void apply(const std::vector<CooEntry<double>> &Batch) {
    for (const CooEntry<double> &E : Batch)
      set(E.Row, E.Col, stored(E.Row, E.Col) + E.Val);
  }

  double stored(Idx R, Idx C) const {
    auto It = A.find(R * N + C);
    return It == A.end() ? 0.0 : It->second;
  }

  double shape(size_t S) const {
    const double V[] = {Xd, Yzw, Ad, Ax, Rst};
    return V[S];
  }
  double viewAx() const { return Ax; }
  double viewAA() const { return AA; }

private:
  void set(Idx R, Idx C, double V) {
    double Old = stored(R, C);
    size_t Col = static_cast<size_t>(C);
    Ax += (V - Old) * XD[Col];
    Ad += (V - Old) * DD[Col];
    AA += V * V - Old * Old;
    if (V == 0.0)
      A.erase(R * N + C);
    else
      A[R * N + C] = V;
  }

  std::vector<double> XD, DD;
  std::unordered_map<int64_t, double> A;
  double Xd = 0, Yzw = 0, Ad = 0, Ax = 0, AA = 0, Rst = 0;
};

/// The write stream of a writing workload. Deterministic in the seed, so
/// the serve and replay processes see the same batches in the same order.
class Writes {
public:
  Writes(uint64_t Seed, bool ViewMix) : R(Seed * 0xbf58476d1ce4e5b9ULL + 7),
                                        ViewMix(ViewMix) {}

  struct Write {
    bool Delete = false;
    std::vector<CooEntry<double>> Append;     ///< Set when !Delete.
    std::vector<std::pair<Idx, Idx>> Coords;  ///< Set when Delete.
  };

  /// read_after_write: 1-16 fresh entries per batch. view_maintain: batch
  /// sizes cycle 1, 16, 256, and every eighth write deletes the
  /// coordinates appended since the previous delete, which keeps the base
  /// size stationary over a run.
  Write next() {
    Write W;
    if (ViewMix && ++Count % 8 == 0) {
      // Distinct coordinates: deleteCsr negates each listed coordinate
      // once per listing.
      std::sort(Pending.begin(), Pending.end());
      Pending.erase(std::unique(Pending.begin(), Pending.end()), Pending.end());
      W.Delete = true;
      W.Coords = std::move(Pending);
      Pending.clear();
      return W;
    }
    static const size_t Cycle[] = {1, 16, 256};
    size_t Nnz = ViewMix ? Cycle[Appends++ % 3] : 1 + R.nextBelow(16);
    for (size_t K = 0; K < Nnz; ++K) {
      Idx I = static_cast<Idx>(R.nextBelow(N));
      Idx J = static_cast<Idx>(R.nextBelow(N));
      double V = intValue(R, 7) * (R.nextBool(0.25) ? -1.0 : 1.0);
      W.Append.push_back({I, J, V});
      Pending.emplace_back(I, J);
    }
    return W;
  }

  /// The negation of the stored weights at \p Coords, which is what
  /// `deleteCsr` appends (coordinates storing nothing are skipped).
  static std::vector<CooEntry<double>>
  deletionBatch(const Model &M, const std::vector<std::pair<Idx, Idx>> &Coords) {
    std::vector<CooEntry<double>> B;
    for (const auto &[I, J] : Coords)
      if (double V = M.stored(I, J); V != 0.0)
        B.push_back({I, J, -V});
    return B;
  }

private:
  Rng R;
  bool ViewMix;
  uint64_t Count = 0, Appends = 0;
  std::vector<std::pair<Idx, Idx>> Pending;
};

//===----------------------------------------------------------------------===//
// Options
//===----------------------------------------------------------------------===//

enum class Workload { ServeHot, ReadAfterWrite, ViewMaintain };

struct Args {
  Workload W = Workload::ServeHot;
  std::string WName;
  uint64_t Seed = 1;
  double Seconds = 10;
  std::string Mode;
  std::string JitDir;
  std::string Spans;
  uint64_t Rounds = 0; ///< Fixed round count for a writing workload (0: timed).
};

[[noreturn]] void usage(const char *Msg) {
  std::fprintf(stderr,
               "servebench: %s\nusage: servebench --workload "
               "serve_hot|read_after_write|view_maintain --seed N --seconds S "
               "--mode serve|replay --jit-dir DIR [--spans FILE] "
               "[--rounds N]\n",
               Msg);
  std::exit(2);
}

Args parseArgs(int Argc, char **Argv) {
  Args A;
  for (int I = 1; I < Argc; ++I) {
    std::string K = Argv[I];
    if (I + 1 >= Argc)
      usage(("missing value for " + K).c_str());
    std::string V = Argv[++I];
    if (K == "--workload")
      A.WName = V;
    else if (K == "--seed")
      A.Seed = std::strtoull(V.c_str(), nullptr, 10);
    else if (K == "--seconds")
      A.Seconds = std::atof(V.c_str());
    else if (K == "--mode")
      A.Mode = V;
    else if (K == "--jit-dir")
      A.JitDir = V;
    else if (K == "--spans")
      A.Spans = V;
    else if (K == "--rounds")
      A.Rounds = std::strtoull(V.c_str(), nullptr, 10);
    else
      usage(("unknown option " + K).c_str());
  }
  if (A.WName == "serve_hot")
    A.W = Workload::ServeHot;
  else if (A.WName == "read_after_write")
    A.W = Workload::ReadAfterWrite;
  else if (A.WName == "view_maintain")
    A.W = Workload::ViewMaintain;
  else
    usage("unknown workload");
  if (A.Mode != "serve" && A.Mode != "replay")
    usage("unknown mode");
  if (A.JitDir.empty() || A.Seconds <= 0)
    usage("--jit-dir and a positive --seconds are required");
  return A;
}

/// The query shapes a workload issues (read_after_write alternates one
/// shape reading A with one that does not).
std::vector<size_t> workloadShapes(Workload W) {
  if (W == Workload::ServeHot)
    return {0, 1, 2, 3, 4};
  if (W == Workload::ReadAfterWrite)
    return {shapeIndex("Ax"), shapeIndex("xd"), shapeIndex("Ad"),
            shapeIndex("yzw")};
  return {};
}

/// The shape stream of serve_hot client \p C.
Rng clientStream(uint64_t Seed, unsigned C) {
  return Rng(Seed * 0x94d049bb133111ebULL + C);
}

/// Installs the tensors workload \p W reads. Both modes load through the
/// catalog directly: nothing is planned or registered yet, so the
/// service's write-through helpers would have nothing to invalidate.
void loadCatalog(TensorCatalog &Cat, Workload W, const Inputs &In) {
  Cat.putCsr("A", In.A, attrI(), attrJ());
  Cat.putSparse("x", In.X, attrJ());
  Cat.putDense("d", In.D, attrJ());
  if (W != Workload::ViewMaintain) {
    Cat.putSparse("y", In.Y, attrI());
    Cat.putSparse("z", In.Z, attrI());
    Cat.putSparse("w", In.W, attrI());
  }
  if (W == Workload::ServeHot) {
    Cat.putCsr("R", In.G, attrI(), attrJ());
    Cat.putCsr("S", In.G, attrJ(), attrK());
    Cat.putCsr("T", In.G, attrI(), attrK());
  }
}

/// The failure tally every mode keeps; a wrong answer is a failure.
struct Tally {
  std::atomic<uint64_t> Attempted{0}, Failed{0};
  void check(bool Ok, const char *What) {
    ++Attempted;
    if (!Ok) {
      if (Failed++ < 5)
        std::fprintf(stderr, "servebench: wrong or failed %s\n", What);
    }
  }
};

//===----------------------------------------------------------------------===//
// serve mode: the service under test, tracing off
//===----------------------------------------------------------------------===//

struct ServeRun {
  const Args &A;
  const Inputs &In;
  Model M;
  Tally Setup;
  ContractionService Svc;
  double SetupSeconds = 0;
  std::vector<double> First; ///< First answer per shape.
  std::set<std::string> Backends; ///< Executors seen during set-up.

  ServeRun(const Args &A, const Inputs &In)
      : A(A), In(In), M(In), Svc(options(A)),
        First(shapes().size(), 0.0) {}

  static ServeOptions options(const Args &A) {
    ServeOptions O;
    O.Threads = 1; // Only batches use the pool; every workload is per-call.
    O.JitCacheDir = A.JitDir;
    return O;
  }

  /// Loads the catalog, registers views and warms every plan the measured
  /// window uses, so the first cc compiles land here.
  void setup() {
    auto T0 = Clock::now();
    loadCatalog(Svc.catalog(), A.W, In);
    for (size_t S : workloadShapes(A.W)) {
      ServeResult R = Svc.query(ServeQuery{shapes()[S].Tensors});
      First[S] = R.Value;
      Backends.insert(R.Backend);
      Setup.check(R.Ok && bitsEq(R.Value, M.shape(S)), "warm-up query");
    }
    if (A.W == Workload::ViewMaintain) {
      std::string Err;
      Setup.check(Svc.registerView("vAx", ServeQuery{{"A", "x"}}, &Err) &&
                      Svc.registerView("vAA", ServeQuery{{"A", "A"}}, &Err),
                  "view registration");
      // One append and its deletion build every delta plan (m = 1, 2)
      // and leave A as loaded.
      Writes::Write W;
      W.Append = {{0, 0, 1.0}};
      Setup.check(write(W), "warm-up append");
      W.Delete = true;
      W.Coords = {{0, 0}};
      Setup.check(write(W), "warm-up delete");
      checkViews(Setup);
      for (const char *V : {"vAx", "vAA"})
        if (auto R = Svc.readView(V))
          Backends.insert(R->Backend);
    }
    SetupSeconds = secondsSince(T0);
  }

  bool write(const Writes::Write &W) {
    if (W.Delete) {
      std::vector<CooEntry<double>> B = Writes::deletionBatch(M, W.Coords);
      uint64_t E = Svc.deleteCsr("A", W.Coords);
      M.apply(B);
      return E != 0;
    }
    uint64_t E = Svc.appendCsr("A", W.Append);
    M.apply(W.Append);
    return E != 0;
  }

  void checkViews(Tally &T) {
    for (const char *V : {"vAx", "vAA"}) {
      auto R = Svc.readView(V);
      double Want = std::string(V) == "vAx" ? M.viewAx() : M.viewAA();
      T.check(R && R->Ok && bitsEq(R->Value, Want), "view reading");
    }
  }
};

/// Counter deltas over the measured window, named as the per-layer
/// metrics name them; every ratio is printed next to its base.
struct Counters {
  ServiceStats S;
  PlanCacheStats P;
  JitCacheStats J;
  CatalogStats C;
  MaintainStats V;

  static Counters take(ContractionService &Svc) {
    return {Svc.stats(), Svc.planStats(), jitCacheStats(),
            Svc.catalog().stats(), Svc.viewStats()};
  }

  static void emit(JsonObj &O, const Counters &B, const Counters &E) {
    auto D = [](uint64_t X, uint64_t Y) { return double(Y - X); };
    auto Ratio = [](double X, double Base) { return Base > 0 ? X / Base : 0.0; };
    double Queries = D(B.S.Queries, E.S.Queries);
    double Execs = D(B.S.Executions, E.S.Executions);
    O.num("serve.queries", Queries)
        .num("serve.executions", Execs)
        .num("serve.coalesced_ratio",
             Ratio(D(B.S.Coalesced, E.S.Coalesced), Queries))
        .num("serve.native_ratio",
             Ratio(D(B.S.NativeRuns, E.S.NativeRuns), Execs));
    double Lookups = D(B.P.Hits, E.P.Hits) + D(B.P.Misses, E.P.Misses);
    O.num("plancache.lookups", Lookups)
        .num("plancache.misses", D(B.P.Misses, E.P.Misses))
        .num("plancache.hit_ratio", Ratio(D(B.P.Hits, E.P.Hits), Lookups))
        .num("plancache.invalidations",
             D(B.P.Invalidations, E.P.Invalidations))
        .num("plancache.evictions", D(B.P.Evictions, E.P.Evictions))
        .num("planner.runs", D(B.P.PlannerRuns, E.P.PlannerRuns));
    double Compiles = D(B.J.Compiles, E.J.Compiles);
    double Mem = D(B.J.MemHits, E.J.MemHits), Disk = D(B.J.DiskHits, E.J.DiskHits);
    O.num("jit.calls", Compiles + Mem + Disk)
        .num("jit.compiles", Compiles)
        .num("jit.mem_hits", Mem)
        .num("jit.disk_hits", Disk)
        .num("jit.hit_ratio", Ratio(Mem + Disk, Compiles + Mem + Disk));
    double Appends = D(B.C.Appends, E.C.Appends);
    O.num("catalog.appends", Appends)
        .num("catalog.merged_nnz_per_append",
             Ratio(D(B.C.MergedNnz, E.C.MergedNnz), Appends))
        .num("catalog.delta_nnz", D(B.C.DeltaNnz, E.C.DeltaNnz));
    O.num("ivm.delta_refreshes", D(B.V.DeltaRefreshes, E.V.DeltaRefreshes))
        .num("ivm.delta_plan_hits", D(B.V.DeltaPlanHits, E.V.DeltaPlanHits))
        .num("ivm.delta_plan_builds",
             D(B.V.DeltaPlanBuilds, E.V.DeltaPlanBuilds))
        .num("ivm.full_recomputes", D(B.V.FullRecomputes, E.V.FullRecomputes));
  }
};

double peakRssMb() {
  struct rusage U;
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0;
}

std::string hostFields() {
  const JitToolchain &Tc = jitToolchain();
  JsonObj O;
  O.add("host", BenchJson::hostJson())
      .str("cc", Tc.Available ? Tc.Cmd + ": " + Tc.VersionLine
                              : "unavailable: " + Tc.Diag);
  return O.S;
}

/// Latency counts in 1%-wide log buckets from 1 us up: fixed memory, so
/// the benchmark's own bookkeeping does not grow with throughput and move
/// the peak RSS it reports. run.py pools the buckets across processes and
/// interpolates percentiles within them.
struct Histogram {
  static constexpr double BaseMs = 1e-3, Ratio = 1.01;
  std::vector<uint64_t> Counts = std::vector<uint64_t>(2400, 0);

  void add(double Ms) {
    double B = Ms > BaseMs ? std::log(Ms / BaseMs) / std::log(Ratio) : 0.0;
    ++Counts[std::min(Counts.size() - 1, static_cast<size_t>(B))];
  }
  void merge(const Histogram &O) {
    for (size_t I = 0; I < Counts.size(); ++I)
      Counts[I] += O.Counts[I];
  }
  uint64_t total() const {
    uint64_t N = 0;
    for (uint64_t C : Counts)
      N += C;
    return N;
  }
  /// Sparse `[[bucket, count], ...]`.
  std::string json() const {
    std::string Out;
    for (size_t I = 0; I < Counts.size(); ++I)
      if (Counts[I])
        Out += (Out.empty() ? "[" : ",[") + std::to_string(I) + "," +
               std::to_string(Counts[I]) + "]";
    return "[" + Out + "]";
  }
};

int runServe(const Args &A) {
  Inputs In(A.Seed);
  Writes Wr(A.Seed, A.W == Workload::ViewMaintain);
  ServeRun Run(A, In);
  Run.setup();

  Tally T;
  Histogram Requests, QueryMs, WriteMs;
  std::vector<Histogram> HitMsByShape(shapes().size());
  Counters Before = Counters::take(Run.Svc);
  auto T0 = Clock::now();
  auto More = [&](uint64_t Round) {
    return A.Rounds ? Round < A.Rounds : secondsSince(T0) < A.Seconds;
  };

  if (A.W == Workload::ServeHot) {
    // Four closed-loop clients, each drawing shapes from its own seeded
    // stream: identical shapes meet in flight and coalesce at a rate set by
    // the mix, not by clients falling into lockstep.
    const unsigned Clients = 4;
    struct Lane {
      Histogram Lat;
      std::vector<Histogram> Hits = std::vector<Histogram>(shapes().size());
    };
    std::vector<Lane> Lanes(Clients);
    std::vector<std::thread> Ts;
    for (unsigned C = 0; C < Clients; ++C)
      Ts.emplace_back([&, C] {
        Lane &L = Lanes[C];
        Rng R = clientStream(A.Seed, C);
        while (secondsSince(T0) < A.Seconds) {
          size_t S = R.nextBelow(shapes().size());
          auto Q0 = Clock::now();
          ServeResult Res = Run.Svc.query(ServeQuery{shapes()[S].Tensors});
          double Ms = secondsSince(Q0) * 1e3;
          T.check(Res.Ok && bitsEq(Res.Value, Run.M.shape(S)) &&
                      bitsEq(Res.Value, Run.First[S]),
                  "query");
          L.Lat.add(Ms);
          if (Res.PlanCacheHit && !Res.Coalesced)
            L.Hits[S].add(Ms);
        }
      });
    for (std::thread &Th : Ts)
      Th.join();
    for (Lane &L : Lanes) {
      QueryMs.merge(L.Lat);
      for (size_t S = 0; S < shapes().size(); ++S)
        HitMsByShape[S].merge(L.Hits[S]);
    }
    Requests = QueryMs;
  } else {
    std::vector<size_t> Sh = workloadShapes(A.W);
    for (uint64_t Round = 0; More(Round); ++Round) {
      Writes::Write W = Wr.next();
      auto W0 = Clock::now();
      bool Ok = Run.write(W);
      double Wms = secondsSince(W0) * 1e3;
      T.check(Ok, W.Delete ? "deleteCsr" : "appendCsr");
      WriteMs.add(Wms);
      double Req = Wms;
      if (A.W == Workload::ReadAfterWrite) {
        // One shape that reads A (a plan-cache miss: the write bumped A's
        // version) and one that does not (must keep hitting).
        for (size_t K = 0; K < 2; ++K) {
          size_t S = Sh[(Round % 2) * 2 + K];
          auto Q0 = Clock::now();
          ServeResult R = Run.Svc.query(ServeQuery{shapes()[S].Tensors});
          double Ms = secondsSince(Q0) * 1e3;
          T.check(R.Ok && bitsEq(R.Value, Run.M.shape(S)), "query");
          QueryMs.add(Ms);
          if (R.PlanCacheHit)
            HitMsByShape[S].add(Ms);
          Req += Ms;
        }
      } else {
        auto R0 = Clock::now();
        Run.checkViews(T);
        Req += secondsSince(R0) * 1e3;
      }
      Requests.add(Req);
    }
  }
  double Wall = secondsSince(T0);
  double RssMb = peakRssMb();
  Counters After = Counters::take(Run.Svc);

  JsonObj O;
  O.num("setup_s", Run.SetupSeconds)
      .num("attempted", double(T.Attempted + Run.Setup.Attempted))
      .num("failed", double(T.Failed + Run.Setup.Failed))
      .num("wall_s", Wall)
      .num("window_ops", double(T.Attempted))
      .num("peak_rss_mb", RssMb)
      .add("request_ms", Requests.json())
      .add("query_ms", QueryMs.json())
      .add("write_ms", WriteMs.json());
  JsonObj Hit;
  for (size_t S = 0; S < shapes().size(); ++S)
    if (HitMsByShape[S].total())
      Hit.add(shapes()[S].Name, HitMsByShape[S].json());
  O.add("hit_query_ms", Hit.str());
  JsonObj C;
  Counters::emit(C, Before, After);
  O.add("counters", C.str());
  std::string Backend;
  for (const std::string &B : Run.Backends)
    Backend += (Backend.empty() ? "" : "+") + B;
  O.str("backend", Backend);
  O.S += ", " + hostFields();
  std::printf("%s\n", O.str().c_str());
  return T.Failed || Run.Setup.Failed ? 1 : 0;
}

//===----------------------------------------------------------------------===//
// replay mode: the same operations through the public layer functions,
// one span per layer call
//===----------------------------------------------------------------------===//

/// In-memory span log. A span's self time is its duration minus its
/// children's; a child marked `Rerun` is a separate timing of work its
/// parent did inside a call that cannot be split (stats inside appendCsr,
/// rebind and kernel inside a view refresh), so it is subtracted from the
/// parent but not counted in the operation's total.
class Tracer {
public:
  struct Span {
    uint64_t Op;
    int Parent;
    std::string Name;
    Clock::time_point Start, End;
    bool Rerun;
    bool Measured;
  };

  template <typename Fn> auto span(const std::string &Name, Fn &&F) {
    return timed(Name, Stack.empty() ? -1 : Stack.back(), false, F);
  }

  /// Times \p F as a re-run standing in for work done inside span
  /// \p Parent, which has already ended.
  template <typename Fn> auto rerun(const std::string &Name, int Parent, Fn &&F) {
    return timed(Name, Parent, true, F);
  }

  /// Index of the span that ended last.
  int lastEnded() const { return LastEnded; }

  /// Renames the innermost open span (a jitCompile call is classified as a
  /// compile or a cache hit only after it returns).
  void rename(const std::string &Name) { Spans[size_t(Stack.back())].Name = Name; }

  void beginOp() { ++CurOp; }
  bool Measuring = false;

  static double us(const Span &S) {
    return std::chrono::duration<double, std::micro>(S.End - S.Start).count();
  }

  /// Self time of every span named \p Name in the measured window, in
  /// microseconds. A layer that did no work there (the miss path on a
  /// warm workload) is timed over its set-up calls instead.
  std::vector<double> selfUs(const std::string &Name) const {
    std::vector<double> Child(Spans.size(), 0.0);
    for (const Span &S : Spans)
      if (S.Parent >= 0)
        Child[size_t(S.Parent)] += us(S);
    std::vector<double> Window, Setup;
    for (size_t I = 0; I < Spans.size(); ++I)
      if (Spans[I].Name == Name)
        (Spans[I].Measured ? Window : Setup).push_back(us(Spans[I]) - Child[I]);
    return Window.empty() ? Setup : Window;
  }

  /// Per-operation totals of measured root spans named \p Name, less the
  /// re-runs they contain.
  std::vector<double> opTotalsUs(const std::string &Name) const {
    std::vector<double> Rerun(Spans.size(), 0.0);
    for (size_t I = Spans.size(); I-- > 0;) {
      const Span &S = Spans[I];
      if (S.Parent >= 0)
        Rerun[size_t(S.Parent)] += S.Rerun ? us(S) : Rerun[I];
    }
    std::vector<double> Out;
    for (size_t I = 0; I < Spans.size(); ++I)
      if (Spans[I].Measured && Spans[I].Parent < 0 && Spans[I].Name == Name)
        Out.push_back(us(Spans[I]) - Rerun[I]);
    return Out;
  }

  void write(const std::string &Path) const {
    if (Path.empty())
      return;
    std::ofstream Os(Path, std::ios::trunc);
    auto T0 = Spans.empty() ? Clock::now() : Spans.front().Start;
    auto Us = [&](Clock::time_point T) {
      return std::chrono::duration<double, std::micro>(T - T0).count();
    };
    for (const Span &S : Spans) {
      JsonObj O;
      O.num("op", double(S.Op))
          .str("name", S.Name)
          .num("parent", S.Parent)
          .num("start_us", Us(S.Start))
          .num("end_us", Us(S.End))
          .add("rerun", S.Rerun ? "true" : "false")
          .add("measured", S.Measured ? "true" : "false");
      Os << O.str() << "\n";
    }
  }

private:
  template <typename Fn>
  auto timed(const std::string &Name, int Parent, bool Rerun, Fn &F) {
    Spans.push_back({CurOp, Parent, Name, Clock::now(), {}, Rerun, Measuring});
    Stack.push_back(int(Spans.size() - 1));
    struct Ender {
      Tracer *T;
      ~Ender() {
        T->LastEnded = T->Stack.back();
        T->Spans[size_t(T->LastEnded)].End = Clock::now();
        T->Stack.pop_back();
      }
    } E{this};
    return F();
  }

  std::vector<Span> Spans;
  std::vector<int> Stack;
  uint64_t CurOp = 0;
  int LastEnded = -1;
};

struct Replay {
  const Args &A;
  const Inputs &In;
  Model M;
  Tally T;
  Tracer Tr;
  TensorCatalog Cat;
  PlanCache Plans;
  MaintenanceDriver Drv;
  /// The benchmark's own copies of the view delta plans, re-run per write
  /// to time the rebind and kernel work `onAppendCsr` does internally.
  std::vector<CachedPlanRef> DeltaPlans;

  Replay(const Args &A, const Inputs &In)
      : A(A), In(In), M(In), Drv(Cat, Plans, ivmOptions(A)) {}

  static IvmOptions ivmOptions(const Args &A) {
    IvmOptions O;
    O.Prep.JitCacheDir = A.JitDir;
    return O;
  }

  /// The service's miss path, one layer per span: planner → lower →
  /// bytecode → jitCompile → bind (rebindPlan with Force) → insert.
  CachedPlanRef prepare(const std::string &Key,
                        const std::vector<std::string> &Factors,
                        const TensorResolver &Resolve, bool AllowHashed) {
    std::string Err;
    std::optional<PlanQuery> PQ;
    std::vector<Plan> Candidates;
    Tr.span("planner.plan", [&] {
      TypeContext Ctx;
      std::map<std::string, TensorStats> Stats;
      std::map<uint32_t, int64_t> Dims;
      for (const std::string &F : Factors) {
        CatalogTensorRef Tn = Resolve(F);
        Ctx[F] = Tn->Shp;
        Stats[F] = Tn->Stats;
        for (const LevelStat &LS : Tn->Stats.Levels)
          Dims[LS.A.id()] = LS.Extent;
      }
      ExprPtr Prod;
      for (const std::string &F : Factors)
        Prod = Prod ? mulExpand(std::move(Prod), Expr::var(F), Ctx, &Err)
                    : Expr::var(F);
      ExprPtr E = sumAll(std::move(Prod), Ctx, &Err);
      PQ = extractQuery(E, Ctx, Stats, Dims, &Err);
      if (!PQ)
        return;
      PlanOptions PO;
      PO.AllowHashed = AllowHashed;
      Plans.countPlannerRun();
      Candidates = enumeratePlans(*PQ, PO);
    });
    if (!PQ || Candidates.empty())
      return nullptr;
    auto CP = std::make_shared<CachedPlan>();
    CP->Key = Key;
    CP->Tensors = Factors;
    std::sort(CP->Tensors.begin(), CP->Tensors.end());
    CP->Tensors.erase(std::unique(CP->Tensors.begin(), CP->Tensors.end()),
                      CP->Tensors.end());
    CP->OutVar = "out";
    RealizedPlan RP;
    Tr.span("compiler.lower", [&] {
      RP = realizePlan(*PQ, Candidates.front(), "srv");
      LowerCtx LCtx;
      LCtx.OptLevel = 2;
      installPlan(LCtx, RP);
      CP->Prog = compileFullContraction(LCtx, RP.E, CP->OutVar);
    });
    CP->Accesses = RP.Accesses;
    Tr.span("compiler.bytecode", [&] { CP->Bc = compileBytecode(CP->Prog); });
    if (!CP->Bc.ok())
      return nullptr;
    if (jitToolchain().Available)
      Tr.span("jit.lookup", [&] {
        uint64_t Before = jitCacheStats().Compiles;
        JitOptions JO;
        JO.CacheDir = A.JitDir;
        if (NativeKernelRef K = jitCompile(CP->Prog, JO, &Err)) {
          CP->Kernel = K;
          CP->Call = std::make_unique<NativeCall>(K);
        }
        if (jitCacheStats().Compiles != Before)
          Tr.rename("jit.compile");
      });
    bool Bound = Tr.span("bind", [&] {
      for (const PlanAccess &Acc : CP->Accesses) {
        CP->BoundVersions.push_back(0);
        CP->BoundKinds.push_back(static_cast<int>(Resolve(Acc.Tensor)->K));
      }
      if (rebindPlan(*CP, Resolve, /*Force=*/true, &Err))
        return true;
      // A native bind failure degrades to bytecode, as the service does.
      CP->Call.reset();
      CP->Kernel.reset();
      return rebindPlan(*CP, Resolve, /*Force=*/true, &Err);
    });
    return Bound ? CP : nullptr;
  }

  void query(size_t S) {
    Tr.beginOp();
    Tr.span("query", [&] {
      CatalogSnapshotRef Snap = Cat.snapshot();
      std::vector<std::string> Names = shapes()[S].Tensors;
      std::sort(Names.begin(), Names.end());
      std::string Key;
      for (const std::string &Nm : Names)
        Key += Nm + "@v" + std::to_string(Snap->find(Nm)->Version) + "|";
      CachedPlanRef P =
          Tr.span("plancache.lookup", [&] { return Plans.lookup(Key); });
      if (!P) {
        P = prepare(Key, Names, snapshotResolver(Snap), /*AllowHashed=*/true);
        if (!P) {
          T.check(false, "replayed prepare");
          return;
        }
        P = Plans.insert(P);
      }
      ExecOutcome O = Tr.span(std::string("kernel.") + shapes()[S].Name,
                              [&] { return executePlan(*P); });
      T.check(O.Ok && bitsEq(O.Value, M.shape(S)), "replayed query");
    });
  }

  void write(const Writes::Write &W) {
    std::vector<CooEntry<double>> Batch =
        W.Delete ? Writes::deletionBatch(M, W.Coords) : W.Append;
    Tr.beginOp();
    Tr.span("write", [&] {
      CatalogSnapshotRef Pre = Cat.snapshot();
      uint64_t E =
          Tr.span("catalog.append", [&] { return Cat.appendCsr("A", Batch); });
      // appendCsr recomputes the stats inside; time them separately on the
      // same post-write payload.
      CatalogSnapshotRef Post = Cat.snapshot();
      Tr.rerun("planner.stats", Tr.lastEnded(), [&] {
        return statsOfCsr("A", Post->find("A")->Csr, attrI(), attrJ()).Nnz;
      });
      T.check(E != 0, "replayed write");
      Tr.span("plancache.invalidate", [&] { Plans.invalidateTensor("A"); });
      Tr.span("ivm.refresh", [&] { Drv.onAppendCsr("A", Batch, Pre, Post); });
      rerunDeltaPlans(Batch, Pre, Tr.lastEnded());
    });
    M.apply(Batch);
  }

  /// Rebinds and runs the benchmark's copies of the view delta plans on
  /// this batch, as `refreshScalar` does inside `onAppendCsr`.
  void rerunDeltaPlans(const std::vector<CooEntry<double>> &Batch,
                       const CatalogSnapshotRef &Pre, int RefreshSpan) {
    if (DeltaPlans.empty())
      return;
    CatalogTensorRef DeltaT = deltaTensorCsr(*Pre->find("A"), Batch);
    if (!DeltaT)
      return;
    TensorResolver R = [&](const std::string &Nm) {
      return Nm == DeltaT->Name ? DeltaT : Pre->find(Nm);
    };
    for (const CachedPlanRef &P : DeltaPlans) {
      std::string Err;
      bool Ok = Tr.rerun("bind", RefreshSpan, [&] {
        std::lock_guard<std::mutex> L(P->ExecMu);
        return rebindPlan(*P, R, /*Force=*/false, &Err);
      });
      ExecOutcome O = Tr.rerun("kernel.delta", RefreshSpan,
                               [&] { return executePlan(*P); });
      T.check(Ok && O.Ok, "re-run delta plan");
    }
  }

  void readViews() {
    Tr.beginOp();
    Tr.span("read", [&] {
      for (const char *V : {"vAx", "vAA"}) {
        auto R = Tr.span("ivm.read", [&] { return Drv.read(V); });
        double Want = std::string(V) == "vAx" ? M.viewAx() : M.viewAA();
        T.check(R && R->Ok && bitsEq(R->Value, Want), "replayed view read");
      }
    });
  }

  void setup() {
    loadCatalog(Cat, A.W, In);
    for (size_t S : workloadShapes(A.W))
      query(S);
    if (A.W != Workload::ViewMaintain)
      return;
    std::string Err;
    T.check(Drv.registerView("vAx", {"A", "x"}, &Err) &&
                Drv.registerView("vAA", {"A", "A"}, &Err),
            "replayed view registration");
    Writes::Write W;
    W.Append = {{0, 0, 1.0}};
    // The benchmark's copies of the three delta plans: Σ Δ·x for vAx and
    // the binomial terms Σ A·Δ, Σ Δ·Δ for vAA.
    CatalogSnapshotRef Pre = Cat.snapshot();
    CatalogTensorRef DeltaT = deltaTensorCsr(*Pre->find("A"), W.Append);
    TensorResolver R = [&](const std::string &Nm) {
      return Nm == DeltaT->Name ? DeltaT : Pre->find(Nm);
    };
    const std::string D = DeltaT->Name;
    for (const std::vector<std::string> &F :
         {std::vector<std::string>{D, "x"}, {"A", D}, {D, D}}) {
      std::string Key = "servebench;delta";
      for (const std::string &Nm : F)
        Key += ";" + Nm;
      if (CachedPlanRef P = prepare(Key, F, R, /*AllowHashed=*/false))
        DeltaPlans.push_back(P);
      else
        T.check(false, "delta plan copy");
    }
    write(W);
    W.Delete = true;
    W.Coords = {{0, 0}};
    write(W);
    readViews();
  }
};

int runReplay(const Args &A) {
  Inputs In(A.Seed);
  Writes Wr(A.Seed, A.W == Workload::ViewMaintain);
  Replay Rp(A, In);
  Rp.setup();
  Rp.Tr.Measuring = true;
  auto T0 = Clock::now();
  std::vector<size_t> Sh = workloadShapes(A.W);
  Rng Client0 = clientStream(A.Seed, 0); // One client replays serve_hot.
  for (uint64_t Round = 0; secondsSince(T0) < A.Seconds; ++Round) {
    if (A.W == Workload::ServeHot) {
      Rp.query(Client0.nextBelow(shapes().size()));
      continue;
    }
    Rp.write(Wr.next());
    if (A.W == Workload::ReadAfterWrite) {
      Rp.query(Sh[(Round % 2) * 2]);
      Rp.query(Sh[(Round % 2) * 2 + 1]);
    } else {
      Rp.readViews();
    }
  }
  Rp.Tr.Measuring = false;
  Rp.Tr.write(A.Spans);

  const Tracer &Tr = Rp.Tr;
  JsonObj O;
  O.num("attempted", double(Rp.T.Attempted)).num("failed", double(Rp.T.Failed));
  auto Med = [&](const char *Metric, const char *Span, double Scale) {
    O.num(Metric, median(Tr.selfUs(Span)) * Scale);
  };
  Med("plancache.lookup_us", "plancache.lookup", 1);
  Med("planner.plan_us", "planner.plan", 1);
  Med("planner.stats_ms", "planner.stats", 1e-3);
  Med("compiler.lower_us", "compiler.lower", 1);
  Med("compiler.bytecode_us", "compiler.bytecode", 1);
  Med("jit.compile_ms", "jit.compile", 1e-3);
  Med("jit.lookup_us", "jit.lookup", 1);
  Med("bind.us", "bind", 1);
  for (const ShapeDef &S : shapes())
    Med((std::string("kernel.") + S.Name + "_us").c_str(),
        (std::string("kernel.") + S.Name).c_str(), 1);
  Med("kernel.delta_us", "kernel.delta", 1);
  Med("catalog.append_ms", "catalog.append", 1e-3);
  Med("ivm.refresh_ms", "ivm.refresh", 1e-3);
  O.num("replay.query_ms", median(Tr.opTotalsUs("query")) * 1e-3)
      .num("replay.write_ms", median(Tr.opTotalsUs("write")) * 1e-3);
  std::printf("%s\n", O.str().c_str());
  return Rp.T.Failed ? 1 : 0;
}

} // namespace

int main(int Argc, char **Argv) {
  Args A = parseArgs(Argc, Argv);
  // Intern the attributes first: their interning order is the global
  // attribute order every catalog load is checked against.
  attrI();
  attrJ();
  attrK();
  return A.Mode == "replay" ? runReplay(A) : runServe(A);
}
