// `query`: a closed loop of requests against a ct-store that holds the
// `ingest` feed, written by `rfidclean_cli clean --store` while the inputs
// are prepared (untimed), and read through one CtStoreReader. Each request
// picks a tag and a time from the seed; 80% are stays (LoadView +
// StayQueryEvaluatorT + Evaluate), 10% most-likely trajectories on the
// view, and 10% pattern queries on the decoded graph (LoadGraph +
// Pattern::Parse + EvaluateTrajectoryQuery) with the pattern drawn from the
// tag's ground truth. Store reads and the query layer run; core and
// runtime stay idle. The mix puts p50 inside stays and p99 inside patterns.
#include <cstdio>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common.h"
#include "common/rng.h"
#include "common/strings.h"
#include "query/most_likely.h"
#include "query/pattern.h"
#include "query/stay_query.h"
#include "query/trajectory_query.h"
#include "store/ct_store.h"
#include "store/ctgraph_view.h"

namespace rfidclean::perfbench {
namespace {

enum class Kind { kStay, kMostLikely, kPattern };

struct Request {
  Kind kind = Kind::kStay;
  std::size_t tag_index = 0;
  Timestamp time = 0;
  std::string pattern;
};

/// Every this many requests, the answer is kept and compared afterwards
/// with the answer over the LoadGraph graph.
constexpr std::size_t kSampleEvery = 20;

/// A pattern that the tag's ground truth matches: one or two stays
/// ("? A[n] ?" or "? A[n] ? B[m] ?") cut from the truth's runs.
std::string PatternFromTruth(const Trajectory& truth, const Building& building,
                             Rng* rng) {
  struct Run {
    LocationId location;
    Timestamp length;
  };
  std::vector<Run> runs;
  for (Timestamp t = 0; t < truth.length(); ++t) {
    if (runs.empty() || runs.back().location != truth.At(t)) {
      runs.push_back({truth.At(t), 0});
    }
    ++runs.back().length;
  }
  auto item = [&](const Run& run) {
    const int min_duration = rng->UniformInt(1, run.length);
    return building.location(run.location).name + "[" +
           std::to_string(min_duration) + "]";
  };
  const std::size_t first = rng->UniformIndex(runs.size());
  std::string text = "? " + item(runs[first]) + " ?";
  if (first + 1 < runs.size() && rng->Bernoulli(0.5)) {
    const std::size_t second =
        first + 1 + rng->UniformIndex(runs.size() - first - 1);
    text.append(" ").append(item(runs[second])).append(" ?");
  }
  return text;
}

/// The request stream of a seed: the same seed gives the same requests.
class RequestStream {
 public:
  RequestStream(const Options& options, const Feed& feed,
                const Building& building)
      : feed_(&feed), building_(&building), rng_(options.seed, 0x9E55) {}

  Request Next() {
    if (block_.empty()) {
      // Every 10 requests hold exactly 8 stays, 1 most-likely and 1 pattern,
      // in seeded order. A pattern costs about ten stays, so a mix drawn
      // request by request would move a run's figures with the seed.
      block_.assign(8, Kind::kStay);
      block_.push_back(Kind::kMostLikely);
      block_.push_back(Kind::kPattern);
      for (std::size_t i = block_.size() - 1; i > 0; --i) {
        std::swap(block_[i], block_[rng_.UniformIndex(i + 1)]);
      }
    }
    Request request;
    request.kind = block_.back();
    block_.pop_back();
    request.tag_index = rng_.UniformIndex(feed_->tags.size());
    const Trajectory& truth = feed_->truth[request.tag_index];
    request.time = static_cast<Timestamp>(
        rng_.UniformIndex(static_cast<std::size_t>(truth.length())));
    if (request.kind == Kind::kPattern) {
      request.pattern = PatternFromTruth(truth, *building_, &rng_);
    }
    return request;
  }

 private:
  const Feed* feed_;
  const Building* building_;
  Rng rng_;
  std::vector<Kind> block_;  ///< kinds left in the current block of 10
};

/// One request's answer, in whichever shape its kind produces.
struct Answer {
  std::vector<std::pair<LocationId, double>> stay;
  Trajectory path;
  double probability = 0.0;
  bool ok = false;
};

/// Runs one request and releases what it loaded. Spans go to `log` (a no-op
/// when it is disabled).
Answer Serve(const Request& request, const Feed& feed,
             const store::CtStoreReader& reader, const Building& building,
             SpanLog* log, std::int64_t id) {
  Answer answer;
  const TagId tag = feed.tags[request.tag_index];
  if (request.kind == Kind::kPattern) {
    std::optional<Result<CtGraph>> graph;
    {
      SpanLog::Scope span(log, "store.load_graph", id);
      graph.emplace(reader.LoadGraph(tag));
    }
    if (!graph->ok()) return answer;
    {
      SpanLog::Scope span(log, "query.pattern", id);
      Result<Pattern> pattern = Pattern::Parse(request.pattern, building);
      if (!pattern.ok()) return answer;
      answer.probability =
          EvaluateTrajectoryQuery(graph->value(), pattern.value());
      answer.ok = true;
    }
    SpanLog::Scope span(log, "query.release", id);
    graph.reset();
    return answer;
  }
  std::optional<Result<store::CtGraphView>> view;
  {
    SpanLog::Scope span(log, "store.load_view", id);
    view.emplace(reader.LoadView(tag));
  }
  if (!view->ok()) return answer;
  if (request.kind == Kind::kMostLikely) {
    {
      SpanLog::Scope span(log, "query.most_likely", id);
      auto [path, probability] = MostLikelyTrajectoryOf(view->value());
      answer.path = std::move(path);
      answer.probability = probability;
      answer.ok = answer.path.length() == view->value().length() &&
                  probability > 0.0 && probability <= 1.0;
    }
    SpanLog::Scope span(log, "query.release", id);
    view.reset();
    return answer;
  }
  std::optional<StayQueryEvaluatorT<store::CtGraphView>> evaluator;
  {
    SpanLog::Scope span(log, "query.marginals", id);
    evaluator.emplace(view->value());
  }
  {
    SpanLog::Scope span(log, "query.stay_eval", id);
    answer.stay = evaluator->Evaluate(request.time);
    answer.ok = true;
  }
  SpanLog::Scope span(log, "query.release", id);
  evaluator.reset();
  view.reset();
  return answer;
}

bool AnswerValid(const Request& request, const Answer& answer) {
  if (!answer.ok) return false;
  switch (request.kind) {
    case Kind::kStay:
      return StayAnswerValid(answer.stay);
    case Kind::kMostLikely:
      return true;  // length and (0, 1] are checked where the view is
    case Kind::kPattern:
      return answer.probability >= 0.0 && answer.probability <= 1.0 + 1e-9;
  }
  return false;
}

/// The same request answered over the owning graph the store decodes; the
/// view's answer must match it bit for bit.
bool MatchesDecodedGraph(const Request& request, const Answer& answer,
                         const Feed& feed, const store::CtStoreReader& reader,
                         const Building& building) {
  Result<CtGraph> graph = reader.LoadGraph(feed.tags[request.tag_index]);
  if (!graph.ok()) return false;
  switch (request.kind) {
    case Kind::kStay: {
      StayQueryEvaluator evaluator(graph.value());
      return evaluator.Evaluate(request.time) == answer.stay;
    }
    case Kind::kMostLikely: {
      auto [path, probability] = MostLikelyTrajectoryOf(graph.value());
      return path == answer.path && probability == answer.probability;
    }
    case Kind::kPattern: {
      Result<Pattern> pattern = Pattern::Parse(request.pattern, building);
      return pattern.ok() && EvaluateTrajectoryQuery(graph.value(),
                                                     pattern.value()) ==
                                 answer.probability;
    }
  }
  return false;
}

struct LoopResult {
  std::vector<double> latency_ms;
  std::vector<double> request_nodes;  ///< nodes of the graph each request read
  double wall_ms = 0.0;
  std::int64_t tag_ticks = 0;
  /// The loop's window on the span log's clock, checks afterwards excluded.
  double log_start_ms = 0.0;
  double log_end_ms = 0.0;
  double peak_rss_kib = 0.0;  ///< VmHWM at the end of the loop
};

/// Serves requests until `seconds` have passed and at least `min_requests`
/// completed, or exactly `count` requests when count > 0. Checks every
/// answer; sampled ones are compared with the decoded graph afterwards.
LoopResult RunLoop(const Options& options, const Feed& feed,
                   const store::CtStoreReader& reader, const Building& building,
                   const std::vector<double>& tag_nodes, double seconds,
                   std::size_t min_requests, std::size_t count, Report* report,
                   SpanLog* log) {
  RequestStream stream(options, feed, building);
  std::vector<std::pair<Request, Answer>> sampled;
  LoopResult result;
  result.log_start_ms = log->NowMs();
  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0;; ++i) {
    if (count > 0) {
      if (i >= count) break;
    } else if (i >= min_requests &&
               MillisBetween(start, Clock::now()) >= seconds * 1000.0) {
      break;
    }
    const Request request = stream.Next();
    const Clock::time_point served = Clock::now();
    Answer answer;
    {
      SpanLog::Scope span(log, "request", static_cast<std::int64_t>(i));
      answer = Serve(request, feed, reader, building, log,
                     static_cast<std::int64_t>(i));
    }
    result.latency_ms.push_back(MillisBetween(served, Clock::now()));
    result.request_nodes.push_back(tag_nodes[request.tag_index]);
    result.tag_ticks += feed.truth[request.tag_index].length();
    report->Attempt();
    if (!AnswerValid(request, answer)) {
      report->Fail(StrFormat("query request %zu (tag index %zu, t=%d)", i,
                             request.tag_index, request.time));
    } else if (i % kSampleEvery == 0) {
      sampled.emplace_back(request, std::move(answer));
    }
  }
  result.wall_ms = MillisBetween(start, Clock::now());
  result.log_end_ms = log->NowMs();
  result.peak_rss_kib = ProcStatusKib("VmHWM");
  for (const auto& [request, answer] : sampled) {
    if (!MatchesDecodedGraph(request, answer, feed, reader, building)) {
      report->Fail(StrFormat("query: view answer for tag index %zu differs "
                             "from the decoded graph's",
                             request.tag_index));
    }
  }
  return result;
}

}  // namespace

void RunQuery(const Options& options, Report* report, SpanLog* log) {
  const Feed feed = GenerateFeed(options, options.work_dir + "/query",
                                 options.tags, options.ticks);
  const std::string store_path = feed.dir + "/query.cts";
  std::remove(store_path.c_str());
  const ChildRun clean =
      RunChild(CleanCommand(options, feed.dir, store_path), feed.dir + "/clean.log");
  if (clean.exit_code != 0) {
    throw std::runtime_error(
        StrFormat("preparing the query store: clean exited %d", clean.exit_code));
  }
  SyncFile(store_path);
  std::unique_ptr<Deployment> deployment;
  std::optional<store::CtStoreReader> reader;
  MeasureSetup(options, report, [&](SpanLog* setup_log) {
    reader.reset();
    deployment = SetUpDeployment(feed.dir, options.seed, setup_log);
    SpanLog::Scope span(setup_log, "store.open");
    Result<store::CtStoreReader> opened = store::CtStoreReader::Open(store_path);
    if (!opened.ok()) throw std::runtime_error(opened.status().ToString());
    reader.emplace(std::move(opened).value());
  });
  const Building& building = deployment->building;
  // Read through the serving reader, so its mapping of the store is resident
  // before the loop starts.
  const double rss_before_kib = ProcStatusKib("VmRSS");
  const std::vector<double> tag_nodes = StoredNodes(*reader, feed.tags);

  if (!options.trace) {
    SpanLog off(false);
    const LoopResult loop = RunLoop(
        options, feed, *reader, building, tag_nodes, options.seconds,
        kMinRequests, 0, report, &off);
    const double wall_s = loop.wall_ms / 1000.0;
    Figures figures;
    figures.latency_ms = loop.latency_ms;
    figures.request_nodes = loop.request_nodes;
    double read_nodes = 0.0;
    for (double nodes : loop.request_nodes) read_nodes += nodes;
    double store_nodes = 0.0;
    for (double nodes : tag_nodes) store_nodes += nodes;
    figures.nodes_per_s = read_nodes / wall_s;
    figures.tag_ticks_per_s = static_cast<double>(loop.tag_ticks) / wall_s;
    figures.requests_per_s = static_cast<double>(loop.latency_ms.size()) / wall_s;
    // What serving the store takes beyond the set-up process: the mapped
    // store plus the views and decoded graphs of the requests.
    figures.peak_rss_mib = (loop.peak_rss_kib - rss_before_kib) / 1024.0;
    figures.peak_nodes = store_nodes;
    figures.store_bytes = static_cast<double>(FileBytes(store_path));
    figures.store_nodes = store_nodes;
    figures.store_tag_ticks = static_cast<double>(feed.TagTicks());
    ReportFigures(figures, report);
    return;
  }

  // Traced: the same request sequence untraced, then traced.
  SpanLog off(false);
  const LoopResult untraced =
      RunLoop(options, feed, *reader, building, tag_nodes, options.seconds / 2,
              200, 0, report, &off);
  const LoopResult traced =
      RunLoop(options, feed, *reader, building, tag_nodes, 0, 0,
              untraced.latency_ms.size(), report, log);
  const double window_ms = traced.log_end_ms - traced.log_start_ms;
  const double request_ms = log->SumMs("request");
  report->Metric("trace.unaccounted_share",
                 1.0 - log->LayerMs(traced.log_start_ms, traced.log_end_ms) /
                           window_ms,
                 "ratio");
  report->Metric("trace.overhead_share", traced.wall_ms / untraced.wall_ms - 1.0,
                 "ratio");
  report->Metric("store.load_view_ms", Median(log->Durations("store.load_view")),
                 "ms");
  report->Metric("query.marginals_ms", Median(log->Durations("query.marginals")),
                 "ms");
  report->Metric("query.stay_eval_us",
                 1000.0 * Median(log->Durations("query.stay_eval")), "us");
  report->Metric("store.load_graph_ms",
                 Median(log->Durations("store.load_graph")), "ms");
  report->Metric("query.pattern_ms", Median(log->Durations("query.pattern")),
                 "ms");
  report->Metric("query.most_likely_ms",
                 Median(log->Durations("query.most_likely")), "ms");
  report->Metric("query.store_share",
                 (log->SumMs("store.load_view") + log->SumMs("store.load_graph")) /
                     request_ms,
                 "ratio");
  report->Metric("query.release_share", log->SumMs("query.release") / request_ms,
                 "ratio");
}

}  // namespace rfidclean::perfbench
