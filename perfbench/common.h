// Shared pieces of the rfidclean benchmark harness: run options, the
// in-memory span log of traced runs, the metric sink, input generation,
// the timed deployment set-up, and the output checks every workload uses.
#ifndef RFIDCLEAN_PERFBENCH_COMMON_H_
#define RFIDCLEAN_PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "constraints/constraint_set.h"
#include "map/building.h"
#include "map/building_grid.h"
#include "map/walking_distance.h"
#include "model/lsequence.h"
#include "model/trajectory.h"
#include "rfid/coverage_matrix.h"
#include "rfid/reader.h"
#include "store/ct_store.h"

namespace rfidclean::perfbench {

/// Command-line settings of one run. The workload's tag count and length
/// arrive from perfbench/registry.json through run.py.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 0.0;
  bool trace = false;
  std::string cli;        ///< rfidclean_cli binary under test
  std::string work_dir;   ///< scratch directory inside the checkout
  std::string trace_out;  ///< span log destination (traced runs)
  int tags = 0;
  int ticks = 0;
};

/// The same for every workload: the building (MakeOfficeBuilding floors),
/// the worker count of the CLI and of BatchCleaner (one per core of a
/// 4-core host), the set-ups behind setup_s, and the fewest requests a
/// query run serves.
inline constexpr int kFloors = 4;
inline constexpr int kJobs = 4;
inline constexpr int kSetupReps = 101;
inline constexpr std::size_t kMinRequests = 1000;

using Clock = std::chrono::steady_clock;

inline double MillisBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Spans recorded by the benchmark around its calls into the library:
/// name, start, end, parent and a group id shared by the spans of one tag
/// or request. Disabled logs record nothing, so untraced runs pay one
/// branch per span. Kept in memory and written out once, at the end.
class SpanLog {
 public:
  struct Span {
    std::string name;
    double start_ms = 0.0;
    double end_ms = 0.0;
    int parent = -1;
    std::int64_t group = -1;
    double Millis() const { return end_ms - start_ms; }
  };

  /// RAII span; a null or disabled log makes it a no-op.
  class Scope {
   public:
    Scope(SpanLog* log, std::string_view name, std::int64_t group = -1);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog* log_;
    int index_ = -1;
  };

  explicit SpanLog(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  bool enabled() const { return enabled_; }
  double NowMs() const { return MillisBetween(origin_, Clock::now()); }

  /// Sum of the durations of every span called `name`.
  double SumMs(std::string_view name) const;
  /// Durations of every span called `name`, in record order.
  std::vector<double> Durations(std::string_view name) const;
  /// Sum of the durations of the outermost layer spans (named
  /// "<layer>.<call>") that start inside [from_ms, to_ms]: the ledger's
  /// accounted time for that window. A span without a layer in its name,
  /// such as a query's "request", is a wrapper: it counts for nothing, and
  /// the layer spans under it count instead.
  double LayerMs(double from_ms, double to_ms) const;

  /// Writes every span as one JSON document.
  bool WriteJson(const std::string& path) const;

 private:
  int Begin(std::string_view name, std::int64_t group);
  void End(int index);

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  int open_ = -1;  // innermost open span
};

/// Every per-layer metric a traced run reports, with its unit. A workload
/// that does not exercise a layer reports 0 for it: that layer did no work.
struct MetricDef {
  const char* name;
  const char* unit;
};
inline constexpr MetricDef kPerLayerMetrics[] = {
    {"io.building_ms", "ms"},
    {"map.walking_ms", "ms"},
    {"rfid.calibrate_ms", "ms"},
    {"constraints.infer_ms", "ms"},
    {"runtime.cleaner_init_ms", "ms"},
    {"store.open_ms", "ms"},
    {"io.parse_ms", "ms"},
    {"model.interpret_ms", "ms"},
    {"model.candidates_per_tick", "count"},
    {"runtime.clean_all_ms", "ms"},
    {"runtime.clean_all_jobs1_ms", "ms"},
    {"runtime.speedup", "ratio"},
    {"runtime.max_tag_share", "ratio"},
    {"runtime.steals", "count"},
    {"runtime.arena_reuses", "count"},
    {"store.encode_ms", "ms"},
    {"store.encode_mib_per_s", "MiB/s"},
    {"store.write_ms", "ms"},
    {"store.blob_bytes_per_node", "B/node"},
    {"core.release_ms", "ms"},
    {"analysis.preflight_ms", "ms"},
    {"analysis.pruned_share", "ratio"},
    {"core.forward_ms", "ms"},
    {"core.condition_ms", "ms"},
    {"core.build_ms", "ms"},
    {"core.survival_share", "ratio"},
    {"core.memo_hit_share", "ratio"},
    {"core.probe_steps_per_key", "steps/key"},
    {"core.peak_nodes", "count"},
    {"core.peak_edges", "count"},
    {"core.final_nodes", "count"},
    {"core.final_edges", "count"},
    {"core.heap_bytes_per_node", "B/node"},
    {"store.load_view_ms", "ms"},
    {"query.marginals_ms", "ms"},
    {"query.stay_eval_us", "us"},
    {"store.load_graph_ms", "ms"},
    {"query.pattern_ms", "ms"},
    {"query.most_likely_ms", "ms"},
    {"query.store_share", "ratio"},
    {"query.release_share", "ratio"},
    {"trace.unaccounted_share", "ratio"},
    {"trace.overhead_share", "ratio"},
};

/// Metrics, check failures and informational fields of one run.
class Report {
 public:
  /// A quiet report does not log the failures it counts (the self-check
  /// provokes them on purpose).
  explicit Report(bool quiet = false) : quiet_(quiet) {}

  void Metric(const std::string& name, double value, const std::string& unit);
  void Info(const std::string& name, const std::string& json_value);
  /// An info-line figure with its unit.
  void Figure(const std::string& name, double value, const std::string& unit);
  /// Counts `count` attempted operations.
  void Attempt(std::uint64_t count = 1) { attempted_ += count; }
  /// Counts one failed operation and says why on stderr. The run goes on.
  void Fail(const std::string& why);
  /// Marks the run's results untrustworthy: the checks failed their
  /// self-test, a figure came out non-finite, or the span log was lost.
  void Invalidate(const std::string& why);

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

  /// Adds every per-layer metric not reported yet, as 0.
  void ZeroFillPerLayer();

  /// Prints the info line, then the result line (the last line of stdout).
  void Print() const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
  std::vector<std::pair<std::string, std::string>> info_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  bool valid_ = true;
  bool quiet_ = false;
};

/// The inputs a workload generates from its seed. Only the files under
/// `dir` (building.map, readings.csv) reach the program under test; the
/// in-memory copies serve the checks.
struct Feed {
  std::string dir;
  std::vector<TagId> tags;
  std::vector<Trajectory> truth;     ///< ground truth, per tag
  std::vector<LSequence> sequences;  ///< interpreted readings, per tag
  std::int64_t TagTicks() const;
};

/// Writes DIR/building.map and a multi-tag DIR/readings.csv exactly as
/// `rfidclean_cli generate --floors F --duration T --tags N --seed S`
/// would, and interprets the readings with the calibration `clean --seed S`
/// derives.
Feed GenerateFeed(const Options& options, const std::string& dir, int tags,
                  int ticks);

/// Everything the program builds before it can clean or answer: the
/// building, grid and walking distances, reader deployment and
/// calibration, and the inferred DU+LT+TT constraint set.
struct Deployment {
  Building building;
  BuildingGrid grid;
  WalkingDistances walking;
  std::vector<Reader> readers;
  CoverageMatrix truth;
  CoverageMatrix calibrated;
  ConstraintSet constraints;
};

/// Loads DIR/building.map and derives the deployment, with one span per
/// layer: io.building, map.walking, rfid.calibrate, constraints.infer.
std::unique_ptr<Deployment> SetUpDeployment(const std::string& dir,
                                            std::uint64_t seed, SpanLog* log);

// -- Statistics and process facts --------------------------------------------

double Median(std::vector<double> values);
/// Nearest-rank percentile, q in (0, 1]; the largest value when fewer than
/// 1/(1-q) samples exist.
double Percentile(std::vector<double> values, double q);
/// A field of /proc/self/status in KiB (e.g. "VmHWM").
double ProcStatusKib(const char* field);
/// Bytes the allocator has handed out and not had back. Its growth over a
/// build is what the returned graph holds; VmRSS growth would miss memory
/// the allocator kept from earlier frees and reused.
double HeapBytesInUse();

/// Names of the set-up spans, in call order.
inline constexpr const char* kSetupSpans[] = {
    "io.building", "map.walking", "rfid.calibrate", "constraints.infer",
    "runtime.cleaner_init", "store.open"};

/// Runs `setup` kSetupReps times. Untraced runs report setup_s,
/// the median over repetitions of the summed set-up spans `setup` records
/// into the log it is given; traced runs report the median of each set-up
/// span. Only spanned calls count, so `setup` may release the previous
/// repetition's objects first without that showing in setup_s.
template <typename SetupFn>
void MeasureSetup(const Options& options, Report* report, SetupFn setup) {
  std::vector<double> walls;
  std::map<std::string, std::vector<double>> layers;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    SpanLog log(true);
    setup(&log);
    double total_ms = 0.0;
    for (const char* name : kSetupSpans) {
      layers[name].push_back(log.SumMs(name));
      total_ms += log.SumMs(name);
    }
    walls.push_back(total_ms / 1000.0);
  }
  if (!options.trace) {
    report->Metric("setup_s", Median(walls), "s");
    return;
  }
  for (const char* name : kSetupSpans) {
    report->Metric(std::string(name) + "_ms", Median(layers[name]), "ms");
  }
}

/// Result of one child-process run of rfidclean_cli.
struct ChildRun {
  int exit_code = -1;
  double wall_ms = 0.0;
  double max_rss_mib = 0.0;
};

/// Runs `argv` as a child process (stdout to `log_path`), waits for it and
/// returns its exit code, wall time and peak RSS (wait4).
ChildRun RunChild(const std::vector<std::string>& argv,
                  const std::string& log_path);

/// `rfidclean_cli clean --dir D --jobs J --store F --seed S`.
std::vector<std::string> CleanCommand(const Options& options,
                                      const std::string& dir,
                                      const std::string& store_path);

/// FNV-1a 64 of a file's bytes, as 16 hex digits ("" when unreadable).
std::string FileDigestHex(const std::string& path);
std::string Hex(std::uint64_t value);
/// `text` as a JSON string literal (the names and digests quoted here never
/// need escaping).
std::string Quote(const std::string& text);
std::int64_t FileBytes(const std::string& path);
/// Waits until `path`'s written data is on disk, so that writeback of one
/// pass's output does not run into the next timed section.
void SyncFile(const std::string& path);

// -- Output checks ------------------------------------------------------------

/// What a correct ct-store for a feed holds.
struct StoreExpectation {
  std::vector<TagId> tags;
  std::vector<std::uint64_t> input_digests;  ///< LSequence::Digest per tag
  std::uint64_t constraint_digest = 0;
  /// Graph digests of in-process builds of a few sampled tags.
  std::map<TagId, std::uint64_t> sampled_graph_digests;
};

/// Checks a store against the expectation: VerifyAll passes, every tag is
/// present with the expected provenance, and sampled tags hold the graph
/// the in-process builder produces. Counts one attempt per expected tag and
/// one failure per tag that fails (a failure VerifyAll cannot pin on one
/// tag fails all of them). Returns the number of failed tags.
std::size_t CheckStore(const std::string& path,
                       const StoreExpectation& expected, Report* report);

/// Graph nodes of each of `tags` in a store (0 when unreadable). Reads
/// every blob, so the store's pages are resident afterwards.
std::vector<double> StoredNodes(const store::CtStoreReader& reader,
                                const std::vector<TagId>& tags);

/// What an untraced run measured. Work varies with the seed by about ±10%
/// at these sizes, so the end-to-end metrics are taken per ct-graph node
/// (node counts are fixed by the graph-digest contract); the raw figures a
/// user reads off a run go to the info line.
struct Figures {
  std::vector<double> latency_ms;     ///< per request
  std::vector<double> request_nodes;  ///< nodes each request built or read
  double nodes_per_s = 0.0;
  double tag_ticks_per_s = 0.0;
  double requests_per_s = 0.0;
  double peak_rss_mib = 0.0;
  double peak_nodes = 0.0;  ///< the nodes the peak is taken per
  double store_bytes = 0.0;
  double store_nodes = 0.0;
  double store_tag_ticks = 0.0;
};

/// Reports the end-to-end metrics (and the raw figures) of `figures`.
void ReportFigures(const Figures& figures, Report* report);

/// A stay answer is a distribution: probabilities in [0, 1] summing to 1.
bool StayAnswerValid(const std::vector<std::pair<LocationId, double>>& answer);

/// Feeds the checks one corrupted store blob and one wrong answer, on a
/// tiny instance, and asserts that both are counted as failures.
bool SelfCheck(const Options& options, const std::string& dir);

/// Workload entry points. Traced runs record their passes into `log`.
void RunIngest(const Options& options, Report* report, SpanLog* log);
void RunLongTag(const Options& options, Report* report, SpanLog* log);
void RunQuery(const Options& options, Report* report, SpanLog* log);

}  // namespace rfidclean::perfbench

#endif  // RFIDCLEAN_PERFBENCH_COMMON_H_
