// `long_tag`: CtGraphBuilder::Build of long single-tag l-sequences on the
// calling thread (forward_threads = 1), interpreted before timing. The
// core does nearly all the work, and store, runtime and query are not
// called, so a core gain shows here almost 1:1 and a store gain not at all.
// A run builds a few independent tags drawn from the seed in rounds, so one
// tag's shape does not set the figures. Each timed Build runs in a forked
// child of the (single-threaded) harness: its peak memory is that build's
// alone, and no allocator state carries over from one build to the next.
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <optional>
#include <stdexcept>

#include "analysis/graph_audit.h"
#include "common.h"
#include "common/strings.h"
#include "core/builder.h"
#include "obs/cleaning_stats.h"
#include "store/graph_codec.h"

namespace rfidclean::perfbench {
namespace {

/// What one Build in a child process reports back through a pipe.
struct ChildBuild {
  double build_ms = 0.0;
  double peak_rss_mib = 0.0;  ///< the child's VmHWM right after Build
  std::uint64_t digest = 0;
  std::uint64_t nodes = 0;
  std::uint64_t blob_bytes = 0;  ///< EncodeCtGraphBlob size, first builds
  bool ok = false;
  bool audit_ok = true;  ///< AuditGraph verdict, first builds
};

/// Builds `sequence` in a forked child. A tag's first build is also
/// audited and encoded there (untimed, after the peak is read).
ChildBuild BuildInChild(const CtGraphBuilder& builder,
                        const LSequence& sequence, bool first) {
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    ::close(fds[0]);
    ChildBuild out;
    const Clock::time_point start = Clock::now();
    Result<CtGraph> graph = builder.Build(sequence);
    out.build_ms = MillisBetween(start, Clock::now());
    out.peak_rss_mib = ProcStatusKib("VmHWM") / 1024.0;
    if (graph.ok()) {
      out.ok = true;
      out.digest = graph.value().Digest();
      out.nodes = graph.value().NumNodes();
      if (first) {
        out.audit_ok = AuditGraph(graph.value()).ok();
        out.blob_bytes = store::EncodeCtGraphBlob(graph.value(), 0).size();
      }
    }
    const bool sent = ::write(fds[1], &out, sizeof(out)) ==
                      static_cast<ssize_t>(sizeof(out));
    ::_exit(sent ? 0 : 1);
  }
  ::close(fds[1]);
  ChildBuild out;
  std::size_t received = 0;
  while (received < sizeof(out)) {
    const ssize_t n = ::read(fds[0], reinterpret_cast<char*>(&out) + received,
                             sizeof(out) - received);
    if (n > 0) {
      received += static_cast<std::size_t>(n);
    } else if (n == 0 || errno != EINTR) {
      break;
    }
  }
  ::close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (received != sizeof(out) || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    out = ChildBuild();  // the child died: a failed build
  }
  return out;
}

/// One traced Build + release per tag, in-process, with BuildStats and the
/// forward counters read around each Build. Records each tag's digest; the
/// checks run outside the ledger's windows.
void TracedRound(const Feed& feed, const CtGraphBuilder& builder,
                 std::vector<std::uint64_t>* digests, Report* report,
                 SpanLog* log) {
  BuildStats totals;
  std::size_t candidates = 0;
  double window_ms = 0.0;
  double accounted_ms = 0.0;
  double heap_bytes_per_node = 0.0;
  const obs::CleaningStats before = obs::CleaningStats::Capture();
  for (std::size_t k = 0; k < feed.sequences.size(); ++k) {
    const LSequence& sequence = feed.sequences[k];
    for (Timestamp t = 0; t < sequence.length(); ++t) {
      candidates += sequence.CandidatesAt(t).size();
    }
    report->Attempt();
    const double heap_before = HeapBytesInUse();
    const double start = log->NowMs();
    BuildStats stats;
    std::optional<Result<CtGraph>> graph;
    {
      SpanLog::Scope span(log, "core.build", feed.tags[k]);
      graph.emplace(builder.Build(sequence, &stats));
    }
    const double built = log->NowMs();
    if (!graph->ok() || !AuditGraph(graph->value()).ok()) {
      report->Fail(StrFormat("long_tag traced build of tag %lld",
                             static_cast<long long>(feed.tags[k])));
    } else {
      (*digests)[k] = graph->value().Digest();
    }
    if (k == 0 && stats.final_nodes > 0) {
      heap_bytes_per_node = (HeapBytesInUse() - heap_before) /
                            static_cast<double>(stats.final_nodes);
    }
    const double release_start = log->NowMs();
    {
      SpanLog::Scope span(log, "core.release", feed.tags[k]);
      graph.reset();
    }
    const double end = log->NowMs();
    // Build's own phases and the release are the layers; Build time outside
    // its BuildStats phases shows as unaccounted.
    window_ms += (built - start) + (end - release_start);
    accounted_ms += stats.preflight_millis + stats.forward_millis +
                    stats.backward_millis + log->LayerMs(release_start, end);
    totals.preflight_candidates_pruned += stats.preflight_candidates_pruned;
    totals.peak_nodes += stats.peak_nodes;
    totals.peak_edges += stats.peak_edges;
    totals.final_nodes += stats.final_nodes;
    totals.final_edges += stats.final_edges;
    totals.preflight_millis += stats.preflight_millis;
    totals.forward_millis += stats.forward_millis;
    totals.backward_millis += stats.backward_millis;
  }
  const obs::CleaningStats delta =
      obs::CleaningStats::Capture().DeltaSince(before);
  const double memo_hits =
      static_cast<double>(delta.Get(obs::Counter::kForwardMemoHits));
  const double expansions =
      static_cast<double>(delta.Get(obs::Counter::kForwardExpansions));
  const double keys =
      static_cast<double>(delta.Get(obs::Counter::kForwardKeysInterned));
  report->Metric("trace.unaccounted_share", 1.0 - accounted_ms / window_ms,
                 "ratio");
  report->Metric("core.build_ms", log->SumMs("core.build"), "ms");
  report->Metric("core.release_ms", log->SumMs("core.release"), "ms");
  report->Metric("analysis.preflight_ms", totals.preflight_millis, "ms");
  report->Metric("analysis.pruned_share",
                 static_cast<double>(totals.preflight_candidates_pruned) /
                     static_cast<double>(candidates),
                 "ratio");
  report->Metric("core.forward_ms", totals.forward_millis, "ms");
  report->Metric("core.condition_ms", totals.backward_millis, "ms");
  report->Metric("core.survival_share",
                 static_cast<double>(totals.final_edges) /
                     static_cast<double>(totals.peak_edges),
                 "ratio");
  report->Metric("core.memo_hit_share",
                 memo_hits + expansions > 0 ? memo_hits / (memo_hits + expansions)
                                            : 0.0,
                 "ratio");
  report->Metric("core.probe_steps_per_key",
                 keys > 0 ? delta.Get(obs::Counter::kKeyProbeSteps) / keys : 0.0,
                 "steps/key");
  report->Metric("core.peak_nodes", static_cast<double>(totals.peak_nodes), "count");
  report->Metric("core.peak_edges", static_cast<double>(totals.peak_edges), "count");
  report->Metric("core.final_nodes", static_cast<double>(totals.final_nodes), "count");
  report->Metric("core.final_edges", static_cast<double>(totals.final_edges), "count");
  report->Metric("core.heap_bytes_per_node", heap_bytes_per_node, "B/node");
  report->Metric("model.candidates_per_tick",
                 static_cast<double>(candidates) / feed.TagTicks(), "count");
}

std::string DigestList(const std::vector<std::uint64_t>& digests) {
  std::string list;
  for (std::uint64_t digest : digests) {
    if (!list.empty()) list += ", ";
    list += Quote(Hex(digest));
  }
  return "[" + list + "]";
}

}  // namespace

void RunLongTag(const Options& options, Report* report, SpanLog* log) {
  const Feed feed = GenerateFeed(options, options.work_dir + "/long_tag",
                                 options.tags, options.ticks);
  std::unique_ptr<Deployment> deployment;
  std::optional<CtGraphBuilder> builder;
  MeasureSetup(options, report, [&](SpanLog* setup_log) {
    builder.reset();
    deployment = SetUpDeployment(feed.dir, options.seed, setup_log);
    SpanLog::Scope span(setup_log, "runtime.cleaner_init");
    CleanOptions clean;
    clean.forward_threads = 1;
    builder.emplace(deployment->constraints, clean);
  });
  const std::size_t num_tags = feed.sequences.size();
  std::vector<std::uint64_t> digests(num_tags, 0);

  // Every build of a tag must succeed and reproduce the tag's first digest;
  // the first build is audited.
  auto check = [&](std::size_t k, const ChildBuild& build) {
    report->Attempt();
    if (!build.ok || !build.audit_ok) {
      report->Fail(StrFormat("long_tag tag %zu: build %s", k,
                             build.ok ? "fails the audit" : "failed"));
    } else if (digests[k] == 0) {
      digests[k] = build.digest;
    } else if (build.digest != digests[k]) {
      report->Fail(StrFormat("long_tag tag %zu: digest %s != first build's %s",
                             k, Hex(build.digest).c_str(),
                             Hex(digests[k]).c_str()));
    }
  };

  if (options.trace) {
    // A traced in-process round, then an untraced round of the same builds
    // to compare it with.
    TracedRound(feed, *builder, &digests, report, log);
    double untraced_ms = 0.0;
    for (std::size_t k = 0; k < num_tags; ++k) {
      const ChildBuild build =
          BuildInChild(*builder, feed.sequences[k], /*first=*/false);
      check(k, build);
      untraced_ms += build.build_ms;
    }
    report->Metric("trace.overhead_share",
                   log->SumMs("core.build") / untraced_ms - 1.0, "ratio");
    report->Info("graph_digests", DigestList(digests));
    return;
  }

  // A closed loop of rounds until `seconds` of Build time (checks and
  // process start excluded).
  Figures figures;
  std::vector<std::vector<double>> build_ms(num_tags);
  std::vector<double> nodes(num_tags, 0.0);
  std::vector<double> peak_rss_mib(num_tags, 0.0);
  double timed_ms = 0.0;
  // The wall-clock cap ends the loop even if every build fails.
  const Clock::time_point loop_start = Clock::now();
  auto more = [&]() {
    return timed_ms < options.seconds * 1000.0 &&
           MillisBetween(loop_start, Clock::now()) < 4000.0 * options.seconds;
  };
  for (bool first = true; first || more(); first = false) {
    for (std::size_t k = 0; k < num_tags; ++k) {
      const ChildBuild build = BuildInChild(*builder, feed.sequences[k], first);
      check(k, build);
      if (!build.ok) continue;
      build_ms[k].push_back(build.build_ms);
      figures.latency_ms.push_back(build.build_ms);
      figures.request_nodes.push_back(static_cast<double>(build.nodes));
      timed_ms += build.build_ms;
      if (first) {
        nodes[k] = static_cast<double>(build.nodes);
        peak_rss_mib[k] = build.peak_rss_mib;
        figures.store_bytes += static_cast<double>(build.blob_bytes);
      }
    }
  }
  // Per-tag medians, so every tag weighs the same whatever its build count.
  double median_s = 0.0;
  double total_nodes = 0.0;
  for (std::size_t k = 0; k < num_tags; ++k) {
    median_s += Median(build_ms[k]) / 1000.0;
    total_nodes += nodes[k];
    figures.peak_rss_mib += peak_rss_mib[k];
  }
  const double tag_ticks = static_cast<double>(feed.TagTicks());
  figures.nodes_per_s = total_nodes / median_s;
  figures.tag_ticks_per_s = tag_ticks / median_s;
  figures.requests_per_s =
      static_cast<double>(figures.latency_ms.size()) / (timed_ms / 1000.0);
  // Each build's peak comes from its own process: the mean over tags.
  figures.peak_rss_mib /= static_cast<double>(num_tags);
  figures.peak_nodes = total_nodes / static_cast<double>(num_tags);
  figures.store_nodes = total_nodes;
  figures.store_tag_ticks = tag_ticks;
  ReportFigures(figures, report);
  report->Info("graph_digests", DigestList(digests));
}

}  // namespace rfidclean::perfbench
