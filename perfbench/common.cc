#include "common.h"

#include <fcntl.h>
#include <malloc.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <stdexcept>

#include "common/fnv.h"
#include "common/rng.h"
#include "common/strings.h"
#include "constraints/inference.h"
#include "core/builder.h"
#include "gen/reading_generator.h"
#include "gen/trajectory_generator.h"
#include "io/building_io.h"
#include "io/readings_io.h"
#include "map/standard_buildings.h"
#include "model/apriori.h"
#include "query/stay_query.h"
#include "rfid/calibration.h"
#include "rfid/detection_model.h"
#include "rfid/reader_placement.h"
#include "store/ct_store.h"
#include "store/graph_codec.h"

extern char** environ;

namespace rfidclean::perfbench {

// -- SpanLog ------------------------------------------------------------------

SpanLog::Scope::Scope(SpanLog* log, std::string_view name, std::int64_t group)
    : log_(log != nullptr && log->enabled() ? log : nullptr) {
  if (log_ != nullptr) index_ = log_->Begin(name, group);
}

SpanLog::Scope::~Scope() {
  if (log_ != nullptr) log_->End(index_);
}

int SpanLog::Begin(std::string_view name, std::int64_t group) {
  Span span;
  span.name = std::string(name);
  span.parent = open_;
  // Children inherit the tag or request id of the span that caused them.
  span.group = group < 0 && open_ >= 0 ? spans_[open_].group : group;
  span.start_ms = NowMs();
  spans_.push_back(std::move(span));
  open_ = static_cast<int>(spans_.size()) - 1;
  return open_;
}

void SpanLog::End(int index) {
  spans_[index].end_ms = NowMs();
  open_ = spans_[index].parent;
}

double SpanLog::SumMs(std::string_view name) const {
  double total = 0.0;
  for (const Span& span : spans_) {
    if (span.name == name) total += span.Millis();
  }
  return total;
}

std::vector<double> SpanLog::Durations(std::string_view name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (span.name == name) out.push_back(span.Millis());
  }
  return out;
}

double SpanLog::LayerMs(double from_ms, double to_ms) const {
  auto is_layer = [](const Span& span) {
    return span.name.find('.') != std::string::npos;
  };
  double total = 0.0;
  for (const Span& span : spans_) {
    if (!is_layer(span) || span.start_ms < from_ms || span.start_ms > to_ms) {
      continue;
    }
    int parent = span.parent;
    while (parent >= 0 && !is_layer(spans_[parent])) {
      parent = spans_[parent].parent;
    }
    if (parent < 0) total += span.Millis();
  }
  return total;
}

bool SpanLog::WriteJson(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  os << "{\"spans\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    char line[256];
    std::snprintf(line, sizeof(line),
                  "%s\n{\"id\": %zu, \"name\": \"%s\", \"start_ms\": %.6f, "
                  "\"end_ms\": %.6f, \"parent\": %d, \"group\": %" PRId64 "}",
                  i == 0 ? "" : ",", i, span.name.c_str(), span.start_ms,
                  span.end_ms, span.parent, span.group);
    os << line;
  }
  os << "\n]}\n";
  return os.good();
}

// -- Report -------------------------------------------------------------------

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  if (!std::isfinite(value)) {
    Invalidate("metric " + name + " is not finite");
    value = 0.0;
  }
  metrics_.push_back({name, {value, unit}});
}

void Report::Info(const std::string& name, const std::string& json_value) {
  info_.push_back({name, json_value});
}

void Report::Figure(const std::string& name, double value,
                    const std::string& unit) {
  Info(name, StrFormat("{\"value\": %.17g, \"unit\": \"%s\"}", value,
                       unit.c_str()));
}

void Report::Fail(const std::string& why) {
  ++failed_;
  if (!quiet_) std::fprintf(stderr, "check failed: %s\n", why.c_str());
}

void Report::Invalidate(const std::string& why) {
  valid_ = false;
  std::fprintf(stderr, "run invalid: %s\n", why.c_str());
}

void Report::ZeroFillPerLayer() {
  for (const MetricDef& def : kPerLayerMetrics) {
    const bool reported =
        std::any_of(metrics_.begin(), metrics_.end(),
                    [&](const auto& metric) { return metric.first == def.name; });
    if (!reported) Metric(def.name, 0.0, def.unit);
  }
}

void Report::Print() const {
  std::string info = "{\"info\": {";
  for (std::size_t i = 0; i < info_.size(); ++i) {
    info += (i == 0 ? "\"" : ", \"") + info_[i].first + "\": " + info_[i].second;
  }
  std::printf("%s}}\n", info.c_str());
  std::string line = StrFormat(
      "{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
      ", \"metrics\": {",
      valid_ && failed_ == 0 && attempted_ > 0 ? "true" : "false",
      std::max<std::uint64_t>(attempted_, 1), failed_);
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    line += StrFormat("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      i == 0 ? "" : ", ", metrics_[i].first.c_str(),
                      metrics_[i].second.first,
                      metrics_[i].second.second.c_str());
  }
  std::printf("%s}}\n", line.c_str());
  std::fflush(stdout);
}

// -- Inputs and set-up --------------------------------------------------------

std::int64_t Feed::TagTicks() const {
  std::int64_t total = 0;
  for (const LSequence& sequence : sequences) total += sequence.length();
  return total;
}

std::unique_ptr<Deployment> SetUpDeployment(const std::string& dir,
                                            std::uint64_t seed, SpanLog* log) {
  std::optional<Building> building;
  {
    SpanLog::Scope span(log, "io.building");
    std::ifstream is(dir + "/building.map");
    Result<Building> read = ReadBuilding(is);
    if (!read.ok()) {
      throw std::runtime_error("cannot load " + dir + "/building.map: " +
                               read.status().ToString());
    }
    building.emplace(std::move(read).value());
  }
  std::optional<BuildingGrid> grid;
  std::optional<WalkingDistances> walking;
  {
    SpanLog::Scope span(log, "map.walking");
    grid.emplace(BuildingGrid::Build(*building, 0.5));
    walking.emplace(WalkingDistances::Compute(*building, *grid));
  }
  std::vector<Reader> readers;
  std::optional<CoverageMatrix> truth;
  std::optional<CoverageMatrix> calibrated;
  {
    // The same deterministic deployment `rfidclean_cli clean --seed S`
    // derives (its MakeDeployment).
    SpanLog::Scope span(log, "rfid.calibrate");
    readers = PlaceStandardReaders(*building);
    DetectionModel model;
    truth.emplace(CoverageMatrix::FromModel(readers, *grid, model));
    Rng rng(seed, /*stream=*/0xCA11B);
    calibrated.emplace(Calibrator::Calibrate(*truth, 30, rng));
  }
  std::optional<ConstraintSet> constraints;
  {
    SpanLog::Scope span(log, "constraints.infer");
    InferenceOptions inference;
    inference.families = ConstraintFamilies::DuLtTt();
    constraints.emplace(InferConstraints(*building, *walking, inference));
  }
  return std::make_unique<Deployment>(Deployment{
      std::move(*building), std::move(*grid), std::move(*walking),
      std::move(readers), std::move(*truth), std::move(*calibrated),
      std::move(*constraints)});
}

Feed GenerateFeed(const Options& options, const std::string& dir, int tags,
                  int ticks) {
  ::mkdir(dir.c_str(), 0755);
  Feed feed;
  feed.dir = dir;
  // Mirrors `rfidclean_cli generate`: every tag is an independent object
  // with its own rng stream, read by the ground-truth reader coverage.
  const Building building = MakeOfficeBuilding(kFloors);
  {
    std::ofstream os(dir + "/building.map");
    WriteBuilding(building, os);
    if (!os.good()) throw std::runtime_error("cannot write building.map");
  }
  const BuildingGrid grid = BuildingGrid::Build(building, 0.5);
  const std::vector<Reader> readers = PlaceStandardReaders(building);
  const CoverageMatrix truth =
      CoverageMatrix::FromModel(readers, grid, DetectionModel());
  TrajectoryGenerator trajectories(building);
  TrajectoryGenOptions motion;
  motion.duration_ticks = ticks;
  ReadingGenerator reading_generator(grid, truth);
  std::vector<TagReadings> readings;
  for (int k = 0; k < tags; ++k) {
    Rng rng(options.seed, /*stream=*/1000 + static_cast<std::uint64_t>(k));
    ContinuousTrajectory continuous = trajectories.Generate(motion, rng);
    feed.tags.push_back(static_cast<TagId>(k));
    feed.truth.push_back(continuous.ToDiscrete(building));
    readings.push_back(TagReadings{static_cast<TagId>(k),
                                   reading_generator.Generate(continuous, rng)});
  }
  {
    std::ofstream os(dir + "/readings.csv");
    WriteMultiTagReadingsCsv(readings, os);
    if (!os.good()) throw std::runtime_error("cannot write readings.csv");
  }
  // The interpretation the program itself derives from the files.
  std::unique_ptr<Deployment> deployment =
      SetUpDeployment(dir, options.seed, nullptr);
  AprioriModel apriori(deployment->building, deployment->grid,
                       deployment->calibrated);
  for (const TagReadings& tag : readings) {
    feed.sequences.push_back(LSequence::FromReadings(tag.readings, apriori));
  }
  return feed;
}

// -- Statistics and process facts ---------------------------------------------

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index = static_cast<std::size_t>(
      std::clamp(rank, 1.0, static_cast<double>(values.size())));
  return values[index - 1];
}

double ProcStatusKib(const char* field) {
  std::ifstream is("/proc/self/status");
  std::string line;
  const std::size_t length = std::strlen(field);
  while (std::getline(is, line)) {
    if (line.compare(0, length, field) == 0 && line.size() > length &&
        line[length] == ':') {
      return std::strtod(line.c_str() + length + 1, nullptr);
    }
  }
  return 0.0;
}

double HeapBytesInUse() {
  const struct mallinfo2 info = mallinfo2();
  return static_cast<double>(info.uordblks) + static_cast<double>(info.hblkhd);
}

ChildRun RunChild(const std::vector<std::string>& argv,
                  const std::string& log_path) {
  std::vector<char*> args;
  for (const std::string& arg : argv) args.push_back(const_cast<char*>(arg.c_str()));
  args.push_back(nullptr);
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, log_path.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  ChildRun run;
  const Clock::time_point start = Clock::now();
  pid_t pid = 0;
  const int spawned =
      posix_spawn(&pid, args[0], &actions, nullptr, args.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (spawned != 0) {
    throw std::runtime_error("cannot start " + argv[0] + ": " +
                             std::strerror(spawned));
  }
  int status = 0;
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  while (wait4(pid, &status, 0, &usage) < 0) {
    if (errno != EINTR) throw std::runtime_error("wait4 failed");
  }
  run.wall_ms = MillisBetween(start, Clock::now());
  run.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
  run.max_rss_mib = static_cast<double>(usage.ru_maxrss) / 1024.0;
  return run;
}

std::vector<std::string> CleanCommand(const Options& options,
                                      const std::string& dir,
                                      const std::string& store_path) {
  return {options.cli, "clean", "--dir", dir, "--jobs",
          std::to_string(kJobs), "--store", store_path, "--seed",
          std::to_string(options.seed)};
}

std::string Hex(std::uint64_t value) {
  return StrFormat("%016llx", static_cast<unsigned long long>(value));
}

void SyncFile(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return;
  ::fdatasync(fd);
  ::close(fd);
}

std::string Quote(const std::string& text) {
  std::string quoted = "\"";
  quoted.append(text).push_back('"');
  return quoted;
}

std::string FileDigestHex(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) return "";
  Fnv64 fnv;
  std::vector<char> buffer(1 << 20);
  while (is) {
    is.read(buffer.data(), static_cast<std::streamsize>(buffer.size()));
    fnv.Mix(buffer.data(), static_cast<std::size_t>(is.gcount()));
  }
  return Hex(fnv.Digest());
}

std::int64_t FileBytes(const std::string& path) {
  struct stat info;
  return ::stat(path.c_str(), &info) == 0 ? static_cast<std::int64_t>(info.st_size)
                                          : -1;
}

// -- Checks -------------------------------------------------------------------

std::size_t CheckStore(const std::string& path,
                       const StoreExpectation& expected, Report* report) {
  report->Attempt(expected.tags.size());
  std::map<TagId, std::string> failed;
  auto fail_all = [&](const std::string& why) {
    for (TagId tag : expected.tags) failed.emplace(tag, why);
  };
  Result<store::CtStoreReader> reader = store::CtStoreReader::Open(path);
  if (!reader.ok()) {
    fail_all(reader.status().ToString());
  } else {
    const Status verified = reader.value().VerifyAll();
    if (!verified.ok()) {
      // VerifyAll names the first failing blob as "tag <tag>: check ...".
      long long tag = 0;
      const bool named =
          std::sscanf(verified.message().c_str(), "tag %lld:", &tag) == 1 &&
          std::find(expected.tags.begin(), expected.tags.end(), tag) !=
              expected.tags.end();
      if (named) {
        failed.emplace(tag, verified.ToString());
      } else {
        fail_all(verified.ToString());
      }
    }
    for (std::size_t i = 0; i < expected.tags.size(); ++i) {
      const TagId tag = expected.tags[i];
      Result<std::string> bytes = reader.value().ReadBlobBytes(tag);
      if (!bytes.ok()) {
        failed.emplace(tag, bytes.status().ToString());
        continue;
      }
      Result<store::BlobInfo> blob = store::InspectCtGraphBlob(
          reinterpret_cast<const unsigned char*>(bytes.value().data()),
          bytes.value().size());
      if (!blob.ok()) {
        failed.emplace(tag, blob.status().ToString());
        continue;
      }
      const store::BlobHeader& header = blob.value().header;
      if (header.input_digest != expected.input_digests[i] ||
          header.constraint_digest != expected.constraint_digest) {
        failed.emplace(tag, "provenance digests differ from the inputs'");
      }
      auto sampled = expected.sampled_graph_digests.find(tag);
      if (sampled != expected.sampled_graph_digests.end() &&
          header.graph_digest != sampled->second) {
        failed.emplace(tag, "graph digest differs from an in-process Build");
      }
    }
  }
  for (const auto& [tag, why] : failed) {
    report->Fail(StrFormat("store %s, tag %lld: %s", path.c_str(),
                           static_cast<long long>(tag), why.c_str()));
  }
  return failed.size();
}

std::vector<double> StoredNodes(const store::CtStoreReader& reader,
                                const std::vector<TagId>& tags) {
  std::vector<double> nodes(tags.size(), 0.0);
  for (std::size_t i = 0; i < tags.size(); ++i) {
    Result<std::string> bytes = reader.ReadBlobBytes(tags[i]);
    if (!bytes.ok()) continue;
    Result<store::BlobInfo> blob = store::InspectCtGraphBlob(
        reinterpret_cast<const unsigned char*>(bytes.value().data()),
        bytes.value().size());
    if (blob.ok()) nodes[i] = static_cast<double>(blob.value().header.num_nodes);
  }
  return nodes;
}

void ReportFigures(const Figures& figures, Report* report) {
  std::vector<double> ns_per_node;
  for (std::size_t i = 0; i < figures.latency_ms.size(); ++i) {
    ns_per_node.push_back(figures.latency_ms[i] * 1e6 /
                          figures.request_nodes[i]);
  }
  report->Metric("nodes_per_s", figures.nodes_per_s, "nodes/s");
  report->Metric("request_p50_ns_per_node", Median(ns_per_node), "ns/node");
  report->Metric("request_p99_ns_per_node", Percentile(ns_per_node, 0.99),
                 "ns/node");
  report->Metric("peak_rss_bytes_per_node",
                 figures.peak_rss_mib * 1024.0 * 1024.0 / figures.peak_nodes,
                 "B/node");
  report->Metric("store_bytes_per_node",
                 figures.store_bytes / figures.store_nodes, "B/node");
  report->Figure("requests", static_cast<double>(figures.latency_ms.size()),
                 "count");
  report->Figure("tag_ticks_per_s", figures.tag_ticks_per_s, "tag-ticks/s");
  report->Figure("requests_per_s", figures.requests_per_s, "1/s");
  report->Figure("request_p50_ms", Median(figures.latency_ms), "ms");
  report->Figure("request_p99_ms", Percentile(figures.latency_ms, 0.99), "ms");
  report->Figure("peak_rss_mib", figures.peak_rss_mib, "MiB");
  report->Figure("store_bytes_per_tick",
                 figures.store_bytes / figures.store_tag_ticks, "B/tag-tick");
}

bool StayAnswerValid(
    const std::vector<std::pair<LocationId, double>>& answer) {
  double total = 0.0;
  for (const auto& [location, probability] : answer) {
    if (!(probability >= 0.0 && probability <= 1.0 + 1e-9)) return false;
    total += probability;
  }
  return std::fabs(total - 1.0) <= 1e-9;
}

bool SelfCheck(const Options& options, const std::string& dir) {
  const Feed feed = GenerateFeed(options, dir, /*tags=*/2, /*ticks=*/30);
  std::unique_ptr<Deployment> deployment =
      SetUpDeployment(dir, options.seed, nullptr);
  CtGraphBuilder builder(deployment->constraints);
  const std::string path = dir + "/selfcheck.cts";
  StoreExpectation expected;
  expected.constraint_digest = deployment->constraints.Digest();
  std::vector<CtGraph> graphs;
  {
    Result<store::CtStoreWriter> writer =
        store::CtStoreWriter::Create(path, /*truncate=*/true);
    if (!writer.ok()) return false;
    for (std::size_t i = 0; i < feed.tags.size(); ++i) {
      Result<CtGraph> graph = builder.Build(feed.sequences[i]);
      if (!graph.ok()) return false;
      store::GraphProvenance provenance;
      provenance.input_digest = feed.sequences[i].Digest();
      provenance.constraint_digest = expected.constraint_digest;
      if (!writer.value()
               .Put(feed.tags[i], store::EncodeCtGraphBlob(
                                      graph.value(), feed.tags[i], provenance))
               .ok()) {
        return false;
      }
      expected.tags.push_back(feed.tags[i]);
      expected.input_digests.push_back(provenance.input_digest);
      expected.sampled_graph_digests[feed.tags[i]] = graph.value().Digest();
      graphs.push_back(std::move(graph).value());
    }
    if (!writer.value().Finish().ok()) return false;
  }
  // The intact store and a true answer must pass, or the checks are too
  // strict to mean anything.
  Report quiet(/*quiet=*/true);
  if (CheckStore(path, expected, &quiet) != 0) return false;
  StayQueryEvaluator evaluator(graphs[0]);
  std::vector<std::pair<LocationId, double>> answer = evaluator.Evaluate(5);
  if (!StayAnswerValid(answer)) return false;

  // One flipped byte in the middle of the first blob.
  Report counted(/*quiet=*/true);
  store::StoreEntry entry;
  {
    Result<store::CtStoreReader> reader = store::CtStoreReader::Open(path);
    if (!reader.ok() || reader.value().entries().empty()) return false;
    entry = reader.value().entries()[0];
  }
  {
    std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
    const std::streamoff at =
        static_cast<std::streamoff>(entry.offset + entry.size / 2);
    file.seekg(at);
    char byte = 0;
    file.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x5A);
    file.seekp(at);
    file.write(&byte, 1);
    if (!file.good()) return false;
  }
  const std::size_t store_failures = CheckStore(path, expected, &counted);

  // One wrong answer: mass moved off the distribution.
  answer[0].second += 0.01;
  counted.Attempt();
  if (!StayAnswerValid(answer)) counted.Fail("stay answer");
  return store_failures == 1 && counted.failed() == 2;
}

}  // namespace rfidclean::perfbench
