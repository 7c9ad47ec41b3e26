#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <stdexcept>

namespace perfbench {

void Gates::check(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  if (failures_.size() < 16) failures_.push_back(what);
}

SpanId Tracer::intern(std::string_view name) {
  for (SpanId id = 0; id < names_.size(); ++id) {
    if (names_[id] == name) return id;
  }
  names_.emplace_back(name);
  return static_cast<SpanId>(names_.size() - 1);
}

void Tracer::begin_pass(const std::string& workload, bool traced,
                        std::size_t expected_spans) {
  if (traced) records_.reserve(records_.size() + expected_spans);
  PassInfo info;
  info.workload = workload;
  info.id = static_cast<std::uint32_t>(passes_.size());
  info.traced = traced;
  current_ = info.id;
  enabled_ = traced;
  info.first_record = records_.size();
  passes_.push_back(std::move(info));
  passes_.back().start = now_ns();
  passes_.back().start_stamp = stamp();
}

const Tracer::PassInfo& Tracer::end_pass() {
  PassInfo& info = passes_.back();
  info.end_stamp = stamp();
  info.end = now_ns();
  enabled_ = false;
  const double ns_per_stamp =
      info.end_stamp > info.start_stamp
          ? static_cast<double>(info.end - info.start) /
                static_cast<double>(info.end_stamp - info.start_stamp)
          : 1.0;
  const auto to_ns = [&](std::int64_t s) {
    return info.start + std::llround(static_cast<double>(s - info.start_stamp) * ns_per_stamp);
  };
  for (std::size_t i = info.first_record; i < records_.size(); ++i) {
    Record& r = records_[i];
    r.start = to_ns(r.start);
    r.end = to_ns(r.end);
    auto& [ns, calls] = info.sums[r.name];
    ns += r.end - r.start;
    ++calls;
  }
  if (!info.traced) records_.resize(info.first_record);
  info.end_record = records_.size();
  return info;
}

namespace {

void write_event(std::ofstream& out, bool& first, const std::string& name,
                 const std::string& cat, std::int64_t start, std::int64_t end,
                 std::int64_t origin, std::uint32_t tid, std::uint32_t pass) {
  out << (first ? "\n" : ",\n");
  first = false;
  // Chrome trace times are microseconds; keep the nanosecond digits.
  out << R"({"name":")" << name << R"(","cat":")" << cat
      << R"(","ph":"X","pid":1,"tid":)" << tid
      << R"(,"ts":)" << static_cast<double>(start - origin) / 1e3
      << R"(,"dur":)" << static_cast<double>(end - start) / 1e3
      << R"(,"args":{"pass":)" << pass << "}}";
}

}  // namespace

void Tracer::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write chrome trace to " + path);
  out.precision(15);
  const std::int64_t origin = passes_.empty() ? 0 : passes_.front().start;
  out << R"({"displayTimeUnit":"ns","traceEvents":[)";
  bool first = true;
  for (const PassInfo& pass : passes_) {
    if (!pass.traced) continue;
    write_event(out, first, pass.workload + ".pass", "pass", pass.start, pass.end,
                origin, 1, pass.id);
  }
  for (const Record& r : records_) {
    const std::string& name = names_[r.name];
    write_event(out, first, name, name.substr(0, name.find('.')), r.start, r.end,
                origin, 1, r.pass);
  }
  out << "\n]}\n";
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : (values[mid - 1] + values[mid]) / 2.0;
}

double span_ms(const std::vector<const Tracer::PassInfo*>& passes, SpanId id) {
  std::vector<double> v;
  for (const Tracer::PassInfo* p : passes) {
    const auto it = p->sums.find(id);
    v.push_back(it == p->sums.end() ? 0.0 : static_cast<double>(it->second.first) / 1e6);
  }
  return median(std::move(v));
}

double span_calls(const std::vector<const Tracer::PassInfo*>& passes, SpanId id) {
  std::vector<double> v;
  for (const Tracer::PassInfo* p : passes) {
    const auto it = p->sums.find(id);
    v.push_back(it == p->sums.end() ? 0.0 : static_cast<double>(it->second.second));
  }
  return median(std::move(v));
}

double value_median(const std::vector<std::map<std::string, double>>& values,
                    const std::string& key) {
  std::vector<double> v;
  for (const auto& m : values) {
    const auto it = m.find(key);
    if (it != m.end()) v.push_back(it->second);
  }
  return median(std::move(v));
}

}  // namespace perfbench
