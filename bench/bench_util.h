#ifndef RFIDCLEAN_BENCH_BENCH_UTIL_H_
#define RFIDCLEAN_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#if defined(__unix__)
#include <sys/resource.h>
#endif

#include "common/flags.h"
#include "common/strings.h"
#include "common/table.h"
#include "constraints/inference.h"
#include "eval/experiment.h"
#include "gen/dataset.h"

namespace rfidclean::bench {

/// The command line of a bench binary, checked before anything runs:
/// `--help` prints the accepted flags and exits 0, and a usage error
/// (common/flags.h) exits 2, so a typo never starts a (possibly multi-GiB)
/// run or overwrites a BENCH_*.json. Every bench accepts `--paper`.
inline Flags ParseBenchFlags(int argc, char** argv,
                             std::vector<FlagSpec> specs = {}) {
  specs.push_back({"paper", FlagSpec::kSwitch});
  Result<Flags> flags = Flags::Parse(specs, argc - 1, argv + 1);
  if (flags.ok() && !flags->help()) return std::move(flags).value();
  std::FILE* out = flags.ok() ? stdout : stderr;
  if (!flags.ok()) {
    std::fprintf(out, "%s: %s\n", argv[0], flags.status().message().c_str());
  }
  std::fprintf(out, "usage: %s", argv[0]);
  for (const FlagSpec& spec : specs) {
    std::fprintf(out, spec.kind == FlagSpec::kSwitch ? " [--%s]" : " [--%s V]",
                 spec.name);
  }
  std::fprintf(out, "\n");
  std::exit(flags.ok() ? 0 : 2);
}

/// The comma-separated positive integers of flag `name` (`fallback` when
/// it is absent); exits 2 like ParseBenchFlags on a malformed entry.
inline std::vector<int> IntListFlag(const Flags& flags, const char* name,
                                    const char* fallback) {
  std::vector<int> values;
  for (const std::string& token : StrSplit(flags.Get(name, fallback), ',')) {
    if (token.empty()) continue;
    if (!ParseNumber(token, &values.emplace_back()) || values.back() < 1) {
      std::fprintf(stderr, "--%s must be a list of positive integers\n", name);
      std::exit(2);
    }
  }
  return values;
}

/// Workload scale of a figure bench. Quick mode (the default) keeps the
/// paper's durations (10/60/90/120 min) but averages over 2 trajectories
/// per (dataset, duration) cell instead of 25, so the full suite completes
/// in minutes on one core; `--paper` (or RFIDCLEAN_BENCH_MODE=paper)
/// restores the paper's 25.
struct BenchScale {
  bool paper = false;

  static BenchScale FromArgs(const Flags& flags) {
    BenchScale scale;
    scale.paper = flags.Has("paper");
    const char* env = std::getenv("RFIDCLEAN_BENCH_MODE");
    if (env != nullptr && std::strcmp(env, "paper") == 0) scale.paper = true;
    return scale;
  }
  /// For benches whose only flag is --paper.
  static BenchScale FromArgs(int argc, char** argv) {
    return FromArgs(ParseBenchFlags(argc, argv));
  }

  int TrajectoriesPerDuration() const { return paper ? 25 : 2; }
  int StayQueriesPerTrajectory() const { return paper ? 100 : 100; }
  int TrajectoryQueriesPerTrajectory() const { return paper ? 50 : 10; }

  const char* Label() const { return paper ? "paper" : "quick"; }
};

/// Repetitions of one point: a fixed time budget per point so short runs
/// average away scheduling noise; --reps overrides, --paper triples.
inline int RepsFor(const Flags& flags, const BenchScale& scale,
                   Timestamp ticks) {
  const int reps = flags.GetInt(
      "reps",
      std::max(3, static_cast<int>(30000 / std::max<Timestamp>(ticks, 1))));
  return scale.paper ? 3 * reps : reps;
}

inline DatasetOptions MakeSynOptions(int which, const BenchScale& scale) {
  DatasetOptions options =
      which == 1 ? DatasetOptions::Syn1() : DatasetOptions::Syn2();
  options.trajectories_per_duration = scale.TrajectoriesPerDuration();
  return options;
}

inline ExperimentLimits MakeLimits(const BenchScale& scale) {
  ExperimentLimits limits;
  limits.max_items_per_duration = scale.TrajectoriesPerDuration();
  limits.stay_queries_per_trajectory = scale.StayQueriesPerTrajectory();
  limits.trajectory_queries_per_trajectory =
      scale.TrajectoryQueriesPerTrajectory();
  return limits;
}

inline void PrintHeader(const char* figure, const char* description,
                        const BenchScale& scale) {
  std::printf("=== %s ===\n%s\n", figure, description);
  std::printf(
      "mode: %s (%d trajectories per duration cell; pass --paper or set "
      "RFIDCLEAN_BENCH_MODE=paper for the paper's 25)\n\n",
      scale.Label(), scale.TrajectoriesPerDuration());
}

inline std::string Minutes(Timestamp ticks) {
  return StrFormat("%dm", ticks / 60);
}

/// Table cell for the skipped-unsatisfiable count of an experiment row.
/// Annotates the first statically diagnosed doom tick when preflight saw one.
inline std::string SkippedCell(int skipped, Timestamp first_doomed_at) {
  if (skipped == 0) return "0";
  if (first_doomed_at < 0) return StrFormat("%d", skipped);
  return StrFormat("%d (doomed@t=%d)", skipped, first_doomed_at);
}

inline std::vector<ConstraintFamilies> AllFamilies() {
  return {ConstraintFamilies::Du(), ConstraintFamilies::DuLt(),
          ConstraintFamilies::DuLtTt()};
}

/// Process-wide peak resident set in bytes (VmHWM on Linux, ru_maxrss
/// elsewhere). Monotone over the process lifetime: values sampled after a
/// measurement report the peak *so far*, not the increment of one phase.
inline std::size_t PeakRssBytes() {
#if defined(__linux__)
  std::ifstream is("/proc/self/status");
  std::string line;
  while (std::getline(is, line)) {
    if (!line.starts_with("VmHWM:")) continue;
    const std::vector<std::string> fields = Tokenize(line);  // VmHWM: N kB
    std::size_t kib = 0;
    if (fields.size() >= 2 && ParseNumber(fields[1], &kib)) return kib * 1024;
  }
#endif
#if defined(__unix__)
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) == 0) {
    return static_cast<std::size_t>(usage.ru_maxrss) * 1024;
  }
#endif
  return 0;
}

/// Emitter of the shared bench JSON schema. Every bench that writes a
/// BENCH_*.json produces the same shape, so the CI regression checker
/// (tools/check_bench_regression.py) and downstream tooling parse one
/// format:
///
///   {
///     "schema": 2,
///     "bench": "<name>",
///     "mode": "quick" | "paper",
///     "params": { ...workload knobs... },
///     "results": [ { ...one measured point... }, ... ]
///   }
///
/// Fields keep insertion order and print one per line (the determinism
/// ctest strips timing-dependent lines with a line-oriented regex).
/// "schema" is bumped whenever the shape of the shared fields changes, so
/// the regression gate can refuse to compare files from different eras
/// instead of silently passing (tools/check_bench_regression.py).
class BenchJson {
 public:
  /// Version 2: introduced the "schema" field itself plus the optional
  /// per-result stats_* dimensions (obs/cleaning_stats.h).
  static constexpr int kSchemaVersion = 2;
  class Object {
   public:
    Object& Add(const char* key, double value, int decimals = 3) {
      return AddRaw(key,
                    StrFormat("%.*f", decimals, value));
    }
    Object& Add(const char* key, int value) {
      return AddRaw(key, StrFormat("%d", value));
    }
    Object& Add(const char* key, long long value) {
      return AddRaw(key, StrFormat("%lld", value));
    }
    Object& Add(const char* key, std::size_t value) {
      return AddRaw(key, StrFormat("%zu", value));
    }
    Object& Add(const char* key, const std::string& value) {
      return AddRaw(key, Quote(value));
    }
    Object& Add(const char* key, const char* value) {
      return AddRaw(key, Quote(value));
    }
    Object& AddHex64(const char* key, std::uint64_t value) {
      return AddRaw(key,
                    StrFormat("\"%016llx\"",
                              static_cast<unsigned long long>(value)));
    }

   private:
    friend class BenchJson;

    Object& AddRaw(const char* key, std::string json) {
      fields_.emplace_back(key, std::move(json));
      return *this;
    }

    static std::string Quote(const std::string& text) {
      std::string out = "\"";
      for (char c : text) {
        if (c == '"' || c == '\\') {
          out += '\\';
          out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
          out += StrFormat("\\u%04x", c);
        } else {
          out += c;
        }
      }
      out += '"';
      return out;
    }

    std::vector<std::pair<std::string, std::string>> fields_;
  };

  BenchJson(const char* bench, const char* mode)
      : bench_(bench), mode_(mode) {}

  /// Workload parameters (tags, ticks, seed, ...), printed once.
  Object& params() { return params_; }

  /// Appends one measured point; the reference stays valid (deque).
  Object& AddResult() { return results_.emplace_back(); }

  void WriteTo(std::ostream& os) const {
    os << "{\n";
    os << "  \"schema\": " << kSchemaVersion << ",\n";
    os << "  \"bench\": " << Object::Quote(bench_) << ",\n";
    os << "  \"mode\": " << Object::Quote(mode_) << ",\n";
    os << "  \"params\": {\n";
    WriteFields(os, params_, "    ");
    os << "  },\n  \"results\": [\n";
    for (std::size_t i = 0; i < results_.size(); ++i) {
      os << "    {\n";
      WriteFields(os, results_[i], "      ");
      os << "    }" << (i + 1 < results_.size() ? "," : "") << "\n";
    }
    os << "  ]\n}\n";
  }

  /// Writes the report to `path`; complains on stderr and returns false on
  /// failure.
  bool WriteFile(const std::string& path) const {
    std::ofstream os(path);
    if (!os) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return false;
    }
    WriteTo(os);
    return true;
  }

 private:
  static void WriteFields(std::ostream& os, const Object& object,
                          const char* indent) {
    for (std::size_t i = 0; i < object.fields_.size(); ++i) {
      os << indent << '"' << object.fields_[i].first
         << "\": " << object.fields_[i].second
         << (i + 1 < object.fields_.size() ? "," : "") << "\n";
    }
  }

  std::string bench_;
  std::string mode_;
  Object params_;
  std::deque<Object> results_;
};

}  // namespace rfidclean::bench

#endif  // RFIDCLEAN_BENCH_BENCH_UTIL_H_
