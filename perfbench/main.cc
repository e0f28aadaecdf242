// perfbench — the rfidclean benchmark harness. run.py builds it and calls
//
//   perfbench --workload ingest|long_tag|query --seed N --seconds S
//             --trace 0|1 --cli PATH --work-dir DIR [--trace-out FILE]
//             --tags N --ticks T
//
// It generates the workload's inputs from the seed, measures for S seconds,
// checks every output, and prints an info line and then the result line:
// {"correct", "attempted", "failed", "metrics"}. Untraced runs report the
// end-to-end metrics; traced runs report the per-layer ones and write the
// span log to --trace-out.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.h"
#include "common/strings.h"

namespace rfidclean::perfbench {
namespace {

bool ParseOptions(int argc, char** argv, Options* options) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    auto as_int = [&]() { return std::atoi(value.c_str()); };
    if (key == "--workload") {
      options->workload = value;
    } else if (key == "--seed") {
      options->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      options->seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      options->trace = value == "1";
    } else if (key == "--cli") {
      options->cli = value;
    } else if (key == "--work-dir") {
      options->work_dir = value;
    } else if (key == "--trace-out") {
      options->trace_out = value;
    } else if (key == "--tags") {
      options->tags = as_int();
    } else if (key == "--ticks") {
      options->ticks = as_int();
    } else {
      std::fprintf(stderr, "unknown option %s\n", key.c_str());
      return false;
    }
  }
  return !options->workload.empty() && !options->cli.empty() &&
         !options->work_dir.empty() && options->seconds > 0 &&
         options->tags > 0 && options->ticks > 1;
}

int Main(int argc, char** argv) {
  Options options;
  if (!ParseOptions(argc, argv, &options)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload W --seed N --seconds S "
                 "--trace 0|1 --cli PATH --work-dir DIR [--trace-out FILE] "
                 "--tags N --ticks T\n");
    return 2;
  }
  Report report;
  SpanLog log(options.trace);
  try {
    // The checks must catch a corrupted blob and a wrong answer before
    // their verdict on the real outputs means anything.
    if (!SelfCheck(options, options.work_dir + "/selfcheck")) {
      report.Invalidate("self-check: a planted corruption went uncounted");
    }
    if (options.workload == "ingest") {
      RunIngest(options, &report, &log);
    } else if (options.workload == "long_tag") {
      RunLongTag(options, &report, &log);
    } else if (options.workload == "query") {
      RunQuery(options, &report, &log);
    } else {
      std::fprintf(stderr, "unknown workload %s\n", options.workload.c_str());
      return 2;
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    return 1;
  }
  if (options.trace) {
    report.ZeroFillPerLayer();
    if (!options.trace_out.empty()) {
      if (log.WriteJson(options.trace_out)) {
        report.Info("trace_file", Quote(options.trace_out));
      } else {
        report.Invalidate("cannot write " + options.trace_out);
      }
    }
  }
  const double attempted = static_cast<double>(report.attempted());
  report.Info("failed_share",
              StrFormat("%.6f", attempted > 0 ? report.failed() / attempted : 0.0));
  report.Print();
  return 0;
}

}  // namespace
}  // namespace rfidclean::perfbench

int main(int argc, char** argv) {
  return rfidclean::perfbench::Main(argc, argv);
}
