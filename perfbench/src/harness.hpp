// The benchmark harness: host-time spans around calls into the library,
// correctness gates, per-pass values, and the workload interface.
//
// Every call the benchmark makes into a library module goes through
// Pass::call with a span name "<module>.<call>". Untraced passes only pay a
// branch per call; traced passes record (name, start, end, pass) into an
// in-memory buffer that is folded into per-pass sums when the pass ends
// and can be written out once as a Chrome trace. Spans are stamped with
// the CPU's invariant time-stamp counter where there is one (a read costs
// about half a steady_clock read, which matters for the 10^6 sub-microsecond
// submit spans per serve pass) and mapped to nanoseconds when the pass
// ends, by the pass's own steady_clock start and end. Calls never nest, so a
// layer span's self time is its duration and the pass span's self time
// is the unattributed remainder (the benchmark's own glue and checks).
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#if defined(__x86_64__)
#include <x86intrin.h>
#endif

namespace perfbench {

[[nodiscard]] inline std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// A span timestamp: time-stamp counter ticks on x86-64, else nanoseconds.
[[nodiscard]] inline std::int64_t stamp() noexcept {
#if defined(__x86_64__)
  return static_cast<std::int64_t>(__rdtsc());
#else
  return now_ns();
#endif
}

/// Command-line settings shared by every workload.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;       ///< tiny inputs, for the self-test
  bool setup_only = false;  ///< stop after set-up and report its time
  bool broken = false;      ///< feed one deliberately corrupted input
  std::string chrome_trace; ///< write the traced spans here ("" = don't)
  unsigned lanes = 1;       ///< ParMachine lanes: min(2, hardware threads)
};

/// Correctness gates. Each check is one attempted operation; a failed
/// check is a failed operation.
class Gates {
 public:
  void check(bool ok, const std::string& what);
  [[nodiscard]] std::uint64_t attempted() const noexcept { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }
  [[nodiscard]] const std::vector<std::string>& failures() const noexcept {
    return failures_;
  }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> failures_;  ///< first few failed checks, for stderr
};

using SpanId = std::uint32_t;

/// Span names and the recorded spans of one process.
class Tracer {
 public:
  /// One span; start/end are stamp()s until its pass ends, then ns.
  struct Record {
    SpanId name = 0;
    std::uint32_t pass = 0;
    std::int64_t start = 0;
    std::int64_t end = 0;
  };
  struct PassInfo {
    std::string workload;
    std::uint32_t id = 0;
    bool traced = false;
    std::int64_t start = 0;  ///< steady_clock ns
    std::int64_t end = 0;
    std::int64_t start_stamp = 0;
    std::int64_t end_stamp = 0;
    std::size_t first_record = 0;  ///< this pass's spans: records()[first, end)
    std::size_t end_record = 0;
    /// Per span name: summed duration (ns) and call count in this pass.
    std::map<SpanId, std::pair<std::int64_t, std::uint64_t>> sums;
  };

  [[nodiscard]] SpanId intern(std::string_view name);
  [[nodiscard]] const std::string& name(SpanId id) const { return names_[id]; }
  /// Names interned so far; ids are dense in [0, name_count()).
  [[nodiscard]] SpanId name_count() const noexcept {
    return static_cast<SpanId>(names_.size());
  }

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  void record(SpanId id, std::int64_t start, std::int64_t end) {
    records_.push_back(Record{id, current_, start, end});
  }

  /// Open a pass; spans recorded until end_pass belong to it. A traced
  /// pass reserves room for `expected_spans` records up front, so the
  /// buffer never grows inside the timed region.
  void begin_pass(const std::string& workload, bool traced, std::size_t expected_spans);
  /// Close the open pass, fold its spans into sums, and return it. The
  /// reference stays valid for the tracer's lifetime.
  const PassInfo& end_pass();

  [[nodiscard]] const std::vector<Record>& records() const noexcept { return records_; }

  /// Write every traced pass and span as Chrome trace JSON.
  void write_chrome_trace(const std::string& path) const;

 private:
  std::vector<std::string> names_;
  std::vector<Record> records_;
  std::deque<PassInfo> passes_;  ///< deque: end_pass() references stay valid
  std::uint32_t current_ = 0;
  bool enabled_ = false;
};

/// RAII host-time span; records only while the tracer is enabled.
class Span {
 public:
  Span(Tracer& tracer, SpanId id) noexcept
      : tracer_(tracer), id_(id), start_(tracer.enabled() ? stamp() : 0) {}
  ~Span() {
    if (tracer_.enabled()) tracer_.record(id_, start_, stamp());
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& tracer_;
  SpanId id_;
  std::int64_t start_;
};

/// What one pass of a workload sees.
struct Pass {
  Tracer& tracer;
  Gates& gates;
  bool traced;
  bool warmup;  ///< the untimed pass charged to set-up
  /// Values a pass measures besides spans (engine-reported wall splits,
  /// exact counts); per-layer metrics take their median over traced passes.
  std::map<std::string, double> values;

  /// Run f() inside a span named `id`, returning its result.
  template <typename F>
  decltype(auto) call(SpanId id, F&& f) {
    const Span span(tracer, id);
    return std::forward<F>(f)();
  }
};

/// One per-layer metric a workload reports from its traced passes.
struct LayerMetric {
  std::string name;  ///< "<module>.<metric>"
  std::string unit;
};

/// A named workload. The harness calls setup() once, then pass() for the
/// warm-up and every timed or traced pass, then layer_metrics() after the
/// traced passes.
class Workload {
 public:
  virtual ~Workload() = default;
  [[nodiscard]] virtual std::string name() const = 0;
  /// Build the inputs from opts.seed and intern the span names.
  virtual void setup(const Options& opts, Tracer& tracer) = 0;
  virtual void pass(Pass& pass) = 0;
  /// Spans one pass records, to reserve before a traced pass starts.
  [[nodiscard]] virtual std::size_t spans_per_pass() const { return 1024; }
  /// Per-layer values computed from the traced passes. `passes` holds the
  /// traced passes' infos and values; `gates` takes any checks made by
  /// extra measurements done here.
  [[nodiscard]] virtual std::vector<std::pair<LayerMetric, double>> layer_metrics(
      const Tracer& tracer, const std::vector<const Tracer::PassInfo*>& passes,
      const std::vector<std::map<std::string, double>>& values, Gates& gates) = 0;
};

/// A fixed job of plain standard-library work (sort, hash, heap, text),
/// independent of the library and of the seed. Timed next to each pass,
/// it gauges the host's speed at that moment.
class Reference {
 public:
  /// Run the job once; return its host time in seconds.
  double run_s();

 private:
  std::uint64_t sink_ = 0;  ///< keeps the job's results alive
};

[[nodiscard]] std::unique_ptr<Workload> make_bcast_1m();
[[nodiscard]] std::unique_ptr<Workload> make_serve_1m();
[[nodiscard]] std::unique_ptr<Workload> make_variants();
[[nodiscard]] std::unique_ptr<Workload> make_chaos();

/// Helpers for layer_metrics().
[[nodiscard]] double median(std::vector<double> values);
/// Median over passes of the summed span time (ms) of span `id`.
[[nodiscard]] double span_ms(const std::vector<const Tracer::PassInfo*>& passes,
                             SpanId id);
/// Median over passes of the number of calls to span `id`.
[[nodiscard]] double span_calls(const std::vector<const Tracer::PassInfo*>& passes,
                                SpanId id);
/// Median over passes of values[key].
[[nodiscard]] double value_median(const std::vector<std::map<std::string, double>>& values,
                                  const std::string& key);

}  // namespace perfbench
