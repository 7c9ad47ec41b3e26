// perfbench: the postal benchmark executable (perfbench/README.md).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--smoke] [--setup-only] [--broken] [--chrome-trace <file>]
//
// --trace 0 sets up the workload (inputs from the seed plus one untimed
// warm-up pass), then times untraced passes for --seconds, each between two
// runs of the fixed reference job, and reports the end-to-end metrics.
// --trace 1 runs every workload, alternating untraced
// and traced passes, and reports the per-layer metrics: each workload's
// own layer table plus, per module, its self time and share of the pass,
// the unattributed remainder, and the tracing overhead. The last line of
// stdout is always one JSON object: correct, attempted, failed, metrics.
#include <algorithm>
#include <cmath>
#include <exception>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "harness.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kMinTimedPasses = 3;
constexpr std::size_t kMinTracedPairs = 2;       ///< for the named workload
constexpr std::size_t kMinOtherTracedPairs = 1;  ///< for every other one

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{"bcast_1m", "serve_1m", "variants", "chaos"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "bcast_1m") return make_bcast_1m();
  if (name == "serve_1m") return make_serve_1m();
  if (name == "variants") return make_variants();
  if (name == "chaos") return make_chaos();
  return nullptr;
}

int usage() {
  std::cerr << "usage: perfbench --workload <bcast_1m|serve_1m|variants|chaos> "
               "--seed <n> --seconds <s> --trace <0|1> [--smoke] [--setup-only] "
               "[--broken] [--chrome-trace <file>]\n";
  return 2;
}

bool parse(int argc, char** argv, Options& opts) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      opts.workload = argv[++i];
      have_workload = true;
    } else if (arg == "--seed" && has_value) {
      opts.seed = std::stoull(argv[++i]);
    } else if (arg == "--seconds" && has_value) {
      opts.seconds = std::stod(argv[++i]);
    } else if (arg == "--trace" && has_value) {
      opts.trace = std::string(argv[++i]) == "1";
    } else if (arg == "--chrome-trace" && has_value) {
      opts.chrome_trace = argv[++i];
    } else if (arg == "--smoke") {
      opts.smoke = true;
    } else if (arg == "--setup-only") {
      opts.setup_only = true;
    } else if (arg == "--broken") {
      opts.broken = true;
    } else {
      return false;
    }
  }
  return have_workload && make_workload(opts.workload) != nullptr;
}

/// Peak resident set of this process (VmHWM), in MB.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0.0;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

std::string number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  std::ostringstream out;
  out.precision(12);
  out << v;
  return out.str();
}

/// Print every metric as "name = value unit", then the JSON result line.
int finish(const std::vector<Metric>& metrics, const Gates& gates) {
  for (const Metric& m : metrics) {
    std::cout << "  " << m.name << " = " << number(m.value) << " " << m.unit << "\n";
  }
  for (const std::string& f : gates.failures()) {
    std::cerr << "perfbench: FAILED check: " << f << "\n";
  }
  const bool correct = gates.failed() == 0;
  std::cout << R"({"correct": )" << (correct ? "true" : "false")
            << R"(, "attempted": )" << gates.attempted() << R"(, "failed": )"
            << gates.failed() << R"(, "metrics": {)";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::cout << (i == 0 ? "" : ", ") << '"' << metrics[i].name << R"(": {"value": )"
              << number(metrics[i].value) << R"(, "unit": ")" << metrics[i].unit << R"("})";
  }
  std::cout << "}}" << std::endl;
  return correct ? 0 : 1;
}

/// Run one pass.
const Tracer::PassInfo& run_pass(Workload& w, Tracer& tracer, Gates& gates, bool traced,
                                 bool warmup,
                                 std::vector<std::map<std::string, double>>* values = nullptr) {
  Pass p{tracer, gates, traced, warmup, {}};
  tracer.begin_pass(w.name(), traced, w.spans_per_pass());
  w.pass(p);
  const Tracer::PassInfo& info = tracer.end_pass();
  if (values != nullptr) values->push_back(std::move(p.values));
  return info;
}

double seconds_of(const Tracer::PassInfo& info) {
  return static_cast<double>(info.end - info.start) / 1e9;
}

int run_timed(const Options& opts, std::int64_t process_start) {
  std::unique_ptr<Workload> w = make_workload(opts.workload);
  Tracer tracer;
  Gates gates;
  w->setup(opts, tracer);
  run_pass(*w, tracer, gates, false, true);
  const double setup_s = static_cast<double>(now_ns() - process_start) / 1e9;
  if (opts.setup_only) return finish({{"setup_s", setup_s, "s"}}, gates);
  // Every pass is alike, so the warm-up pass has already reached the peak;
  // reading it here keeps the reference job's memory out of it.
  const double peak_mb = peak_rss_mb();

  // The reference job runs before the first pass and after every pass;
  // each pass is divided by the mean of the two runs around it. The host's
  // speed drifts by tens of percent over seconds to minutes, and slows
  // both alike, so the ratio holds where the pass time alone does not.
  Reference reference;
  std::vector<double> times;
  std::vector<double> refs{reference.run_s()};
  std::vector<double> ratios;
  const std::int64_t start = now_ns();
  while (times.size() < kMinTimedPasses ||
         static_cast<double>(now_ns() - start) / 1e9 < opts.seconds) {
    times.push_back(seconds_of(run_pass(*w, tracer, gates, false, false)));
    refs.push_back(reference.run_s());
    ratios.push_back(times.back() / ((refs[refs.size() - 2] + refs.back()) / 2.0));
  }
  std::cout << opts.workload << ": " << times.size() << " timed passes, median "
            << number(median(times)) << " s:";
  for (const double t : times) std::cout << " " << number(t);
  std::cout << "\nreference job, median " << number(median(refs)) << " s:";
  for (const double t : refs) std::cout << " " << number(t);
  std::cout << "\n";
  return finish({{"setup_s", setup_s, "s"},
                 {"pass_rel", median(ratios), "ratio"},
                 {"peak_rss_mb", peak_mb, "MB"}},
                gates);
}

/// Set up one workload, alternate untraced and traced passes for
/// `budget_s`, and append its per-layer metrics to `out`.
void trace_workload(const Options& opts, const std::string& name, double budget_s,
                    std::size_t min_pairs, Tracer& tracer, Gates& gates,
                    std::vector<Metric>& out) {
  std::unique_ptr<Workload> w = make_workload(name);
  const SpanId first_span = tracer.name_count();
  w->setup(opts, tracer);
  const SpanId end_span = tracer.name_count();
  run_pass(*w, tracer, gates, false, true);

  std::vector<double> untraced;
  std::vector<const Tracer::PassInfo*> traced;
  std::vector<std::map<std::string, double>> values;
  const std::int64_t start = now_ns();
  while (traced.size() < min_pairs ||
         static_cast<double>(now_ns() - start) / 1e9 < budget_s) {
    untraced.push_back(seconds_of(run_pass(*w, tracer, gates, false, false)));
    traced.push_back(&run_pass(*w, tracer, gates, true, false, &values));
  }

  for (auto& [metric, value] : w->layer_metrics(tracer, traced, values, gates)) {
    out.push_back({metric.name, value, metric.unit});
  }

  // Attribution: per module, the summed span time of its calls (its self
  // time -- calls never nest) and that time's share of the pass; the rest
  // of the pass is the benchmark's own glue and checks.
  std::set<std::string> modules;
  for (SpanId id = first_span; id < end_span; ++id) {
    const std::string& span = tracer.name(id);
    modules.insert(span.substr(0, span.find('.')));
  }
  std::map<std::string, std::vector<double>> self_ms;
  std::map<std::string, std::vector<double>> share;
  std::vector<double> unattributed_ms;
  std::vector<double> attributed_share;
  std::vector<double> traced_s;
  for (const Tracer::PassInfo* pass : traced) {
    const double pass_ns = static_cast<double>(pass->end - pass->start);
    std::map<std::string, double> module_ns;
    for (const std::string& m : modules) module_ns[m] = 0.0;
    double attributed_ns = 0.0;
    for (const auto& [id, sum] : pass->sums) {
      const std::string& span = tracer.name(id);
      module_ns[span.substr(0, span.find('.'))] += static_cast<double>(sum.first);
      attributed_ns += static_cast<double>(sum.first);
    }
    for (const auto& [m, ns] : module_ns) {
      self_ms[m].push_back(ns / 1e6);
      share[m].push_back(ns / pass_ns);
    }
    unattributed_ms.push_back((pass_ns - attributed_ns) / 1e6);
    attributed_share.push_back(attributed_ns / pass_ns);
    traced_s.push_back(pass_ns / 1e9);
  }
  for (const std::string& m : modules) {
    out.push_back({name + "." + m + ".self_ms", median(self_ms[m]), "ms"});
    out.push_back({name + "." + m + ".share", median(share[m]), "ratio"});
  }
  const double attributed = median(attributed_share);
  out.push_back({name + ".unattributed_ms", median(unattributed_ms), "ms"});
  out.push_back({name + ".attributed_share", attributed, "ratio"});
  out.push_back({name + ".pass_s", median(untraced), "s"});
  out.push_back({name + ".traced_pass_s", median(traced_s), "s"});
  out.push_back({name + ".trace_overhead_ms",
                 (median(traced_s) - median(untraced)) * 1e3, "ms"});
  std::cout << name << ": " << traced.size() << " traced + " << untraced.size()
            << " untraced passes; spans attribute " << number(attributed * 100.0)
            << " % of the pass (gate >= 95 %: "
            << (*std::min_element(attributed_share.begin(), attributed_share.end()) >= 0.95
                    ? "met"
                    : "NOT met")
            << ")\n";
}

int run_traced(const Options& opts) {
  Tracer tracer;
  Gates gates;
  std::vector<Metric> metrics;
  // The named workload gets most of the measuring time; every other one
  // still runs at least one pair, so each per-layer metric is measured in
  // every traced run.
  const double others = static_cast<double>(workload_names().size() - 1);
  for (const std::string& name : workload_names()) {
    const bool named = name == opts.workload;
    trace_workload(opts, name, opts.seconds * (named ? 0.55 : 0.45 / others),
                   named ? kMinTracedPairs : kMinOtherTracedPairs, tracer, gates, metrics);
  }
  if (!opts.chrome_trace.empty()) tracer.write_chrome_trace(opts.chrome_trace);
  return finish(metrics, gates);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const std::int64_t process_start = now_ns();
  Options opts;
  try {
    if (!parse(argc, argv, opts)) return usage();
  } catch (const std::exception&) {
    return usage();
  }
  opts.lanes = std::clamp(std::thread::hardware_concurrency(), 1u, 2u);
  try {
    return opts.trace ? run_traced(opts) : run_timed(opts, process_start);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
