//===- support/benchjson.cpp - Machine-readable bench telemetry -----------===//
//
// Part of the etch project.
//
//===----------------------------------------------------------------------===//

#include "support/benchjson.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

namespace etch {

namespace {

/// Escapes a string for inclusion in a JSON string literal. Bench/config
/// names are plain ASCII identifiers; this still handles quotes,
/// backslashes, and control characters for safety.
std::string escapeJson(const std::string &S) {
  std::string Out;
  Out.reserve(S.size());
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
  return Out;
}

} // namespace

void BenchJson::add(const std::string &Bench, const std::string &Config,
                    int Threads, double BestSeconds) {
  Rows.push_back(
      {Bench, Config, Threads, BestSeconds, 0.0, false, 0.0, false});
}

void BenchJson::add(const std::string &Bench, const std::string &Config,
                    int Threads, double BestSeconds, double PlannerCost) {
  Rows.push_back(
      {Bench, Config, Threads, BestSeconds, PlannerCost, true, 0.0, false});
}

void BenchJson::add(const std::string &Bench, const std::string &Config,
                    int Threads, double BestSeconds, double PlannerCost,
                    double AccessCost) {
  Rows.push_back({Bench, Config, Threads, BestSeconds, PlannerCost, true,
                  AccessCost, true});
}

std::string BenchJson::hostJson() {
  std::string Cpu = "unknown";
  if (std::FILE *F = std::fopen("/proc/cpuinfo", "r")) {
    char Line[512];
    while (std::fgets(Line, sizeof(Line), F)) {
      if (std::strncmp(Line, "model name", 10) != 0)
        continue;
      const char *Colon = std::strchr(Line, ':');
      if (Colon) {
        Cpu = Colon + 1;
        while (!Cpu.empty() && (Cpu.front() == ' ' || Cpu.front() == '\t'))
          Cpu.erase(Cpu.begin());
        while (!Cpu.empty() && (Cpu.back() == '\n' || Cpu.back() == ' '))
          Cpu.pop_back();
      }
      break;
    }
    std::fclose(F);
  }
  unsigned Cores = std::thread::hardware_concurrency();
  return "{\"cpu\": \"" + escapeJson(Cpu) +
         "\", \"cores\": " + std::to_string(Cores ? Cores : 1) + "}";
}

std::string BenchJson::toJson() const {
  std::string Out = "{\"host\": " + hostJson() + ",\n \"rows\": [\n";
  for (size_t I = 0; I < Rows.size(); ++I) {
    const Row &R = Rows[I];
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%.9g", R.BestSeconds);
    Out += "  {\"bench\": \"" + escapeJson(R.Bench) + "\", \"config\": \"" +
           escapeJson(R.Config) +
           "\", \"threads\": " + std::to_string(R.Threads) +
           ", \"best_seconds\": " + Buf;
    if (R.HasCost) {
      std::snprintf(Buf, sizeof(Buf), "%.9g", R.PlannerCost);
      Out += std::string(", \"planner_cost\": ") + Buf;
    }
    if (R.HasAccessCost) {
      std::snprintf(Buf, sizeof(Buf), "%.9g", R.AccessCost);
      Out += std::string(", \"planner_access_cost\": ") + Buf;
    }
    Out += "}";
    Out += I + 1 < Rows.size() ? ",\n" : "\n";
  }
  Out += " ]}\n";
  return Out;
}

bool BenchJson::writeFile(const std::string &Path) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F) {
    std::fprintf(stderr, "benchjson: cannot open %s for writing\n",
                 Path.c_str());
    return false;
  }
  std::string S = toJson();
  std::fwrite(S.data(), 1, S.size(), F);
  std::fclose(F);
  return true;
}

BenchOptions parseBenchArgs(int Argc, char **Argv) {
  BenchOptions Opts;
  for (int I = 1; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "--json") == 0 && I + 1 < Argc) {
      Opts.JsonPath = Argv[++I];
    } else if (std::strcmp(Argv[I], "--threads") == 0 && I + 1 < Argc) {
      Opts.Threads.clear();
      for (const char *P = Argv[++I]; *P;) {
        char *End = nullptr;
        long T = std::strtol(P, &End, 10);
        if (End == P || T <= 0)
          break;
        Opts.Threads.push_back(static_cast<int>(T));
        P = *End == ',' ? End + 1 : End;
      }
      if (Opts.Threads.empty()) {
        std::fprintf(stderr, "%s: bad --threads list\n", Argv[0]);
        std::exit(2);
      }
    } else if (std::strcmp(Argv[I], "--reps") == 0 && I + 1 < Argc) {
      Opts.Reps = static_cast<int>(std::strtol(Argv[++I], nullptr, 10));
      if (Opts.Reps <= 0) {
        std::fprintf(stderr, "%s: bad --reps count\n", Argv[0]);
        std::exit(2);
      }
    } else {
      std::fprintf(stderr,
                   "usage: %s [--json <path>] [--threads <t1,t2,...>] "
                   "[--reps <n>]\n",
                   Argv[0]);
      std::exit(2);
    }
  }
  return Opts;
}

} // namespace etch
