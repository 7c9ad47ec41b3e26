#include "obs/metrics.hpp"

#include <charconv>
#include <optional>
#include <type_traits>

#include "support/error.hpp"

namespace postal::obs {
namespace {

// Metric names are caller-controlled identifiers; escape the few JSON
// specials anyway so a stray quote can never corrupt a snapshot. (The full
// string escaper lives in sim/json.hpp, above this library in the layering.)
void append_escaped(std::string& out, std::string_view text) {
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += (static_cast<unsigned char>(c) < 0x20) ? '?' : c;
  }
}

template <class T>
void append_number(std::string& out, T value) {
  char buf[32];
  std::to_chars_result r;
  if constexpr (std::is_floating_point_v<T>) {
    // Precision 6 in the general format: what `std::ostream << double`
    // prints by default, so snapshots keep their exact bytes.
    r = std::to_chars(buf, buf + sizeof buf, value, std::chars_format::general, 6);
  } else {
    r = std::to_chars(buf, buf + sizeof buf, value);
  }
  out.append(buf, r.ptr);
}

void open_line(std::string& out, std::string_view name, std::string_view kind) {
  out += "{\"metric\":\"";
  append_escaped(out, name);
  out += "\",\"kind\":\"";
  out += kind;
  out += '"';
}

void append_line(std::string& out, std::string_view name, const Counter& c) {
  open_line(out, name, "counter");
  out += ",\"value\":";
  append_number(out, c.value());
  out += "}\n";
}

void append_line(std::string& out, std::string_view name, const Gauge& g) {
  open_line(out, name, "gauge");
  out += ",\"value\":";
  append_number(out, g.value());
  out += ",\"max\":";
  append_number(out, g.max());
  out += "}\n";
}

void append_line(std::string& out, std::string_view name, const RationalAccum& r) {
  const Rational& v = r.total();
  open_line(out, name, "rational");
  out += ",\"value\":\"";
  append_number(out, v.num());
  if (v.den() != 1) {
    out += '/';
    append_number(out, v.den());
  }
  out += "\",\"value_float\":";
  append_number(out, v.to_double());
  out += "}\n";
}

void append_line(std::string& out, std::string_view name, const Timer& t) {
  open_line(out, name, "timer");
  out += ",\"ns\":";
  append_number(out, t.total_ns());
  out += ",\"count\":";
  append_number(out, t.count());
  out += ",\"ms\":";
  append_number(out, t.total_ms());
  out += "}\n";
}

bool is_digit(char c) { return c >= '0' && c <= '9'; }

/// A name of the form <stem><index>: a nonempty stem followed by the
/// canonical decimal spelling of the index (no leading zeros).
struct ElementName {
  std::string_view stem;
  std::size_t index = 0;
};

std::optional<ElementName> split_element(std::string_view name) {
  std::size_t k = name.size();
  while (k > 0 && is_digit(name[k - 1])) --k;
  const std::size_t digits = name.size() - k;
  if (k == 0 || digits == 0 || (digits > 1 && name[k] == '0')) return std::nullopt;
  ElementName out{name.substr(0, k), 0};
  const auto r = std::from_chars(name.data() + k, name.data() + name.size(), out.index);
  if (r.ec != std::errc()) return std::nullopt;  // too large to index anything
  return out;
}

[[noreturn]] void kind_clash(std::string_view name) {
  throw InvalidArgument("MetricsRegistry: metric '" + std::string(name) +
                        "' already has another kind");
}

/// Walks one series' element names in their sorted (lexicographic) order:
/// <stem>0, <stem>1, <stem>10, <stem>11, ..., <stem>2, ...
class ElementCursor {
 public:
  ElementCursor(std::string_view stem, const std::vector<RationalAccum>& series)
      : series_(&series), stem_size_(stem.size()), last_(series.size() - 1) {
    name_.reserve(stem.size() + 20);
    name_ = stem;
    name_ += '0';
  }

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] const RationalAccum& metric() const { return (*series_)[index_]; }

  /// Step to the next index in lexicographic order; false past the end.
  bool advance() {
    if (index_ == 0) {
      if (last_ == 0) return false;
      index_ = 1;
    } else if (index_ <= last_ / 10) {
      index_ *= 10;
    } else {
      while (index_ % 10 == 9 || index_ >= last_) {
        index_ /= 10;
        if (index_ == 0) return false;
      }
      ++index_;
    }
    name_.resize(stem_size_);
    append_number(name_, index_);
    return true;
  }

 private:
  const std::vector<RationalAccum>* series_;
  std::size_t stem_size_;
  std::size_t last_;
  std::size_t index_ = 0;
  std::string name_;
};

}  // namespace

RationalAccum* MetricsRegistry::element(std::string_view name) {
  const std::optional<ElementName> e = split_element(name);
  if (!e) return nullptr;
  const auto it = metrics_.find(e->stem);
  if (it == metrics_.end()) return nullptr;
  Series* series = std::get_if<Series>(&it->second);
  if (series == nullptr || e->index >= series->size()) return nullptr;
  return &(*series)[e->index];
}

template <class T>
T& MetricsRegistry::scalar(const std::string& name) {
  const auto it = metrics_.lower_bound(name);
  if (it != metrics_.end() && it->first == name) {
    if (T* found = std::get_if<T>(&it->second)) return *found;
    kind_clash(name);
  }
  if (RationalAccum* e = element(name)) {
    if constexpr (std::is_same_v<T, RationalAccum>) return *e;
    kind_clash(name);
  }
  ++size_;
  return std::get<T>(metrics_
                         .emplace_hint(it, std::piecewise_construct,
                                       std::forward_as_tuple(name),
                                       std::forward_as_tuple(std::in_place_type<T>))
                         ->second);
}

Counter& MetricsRegistry::counter(const std::string& name) {
  return scalar<Counter>(name);
}

Gauge& MetricsRegistry::gauge(const std::string& name) { return scalar<Gauge>(name); }

RationalAccum& MetricsRegistry::rational(const std::string& name) {
  return scalar<RationalAccum>(name);
}

Timer& MetricsRegistry::timer(const std::string& name) { return scalar<Timer>(name); }

std::span<RationalAccum> MetricsRegistry::rational_series(const std::string& stem,
                                                          std::size_t count) {
  POSTAL_REQUIRE(!stem.empty() && !is_digit(stem.back()),
                 "MetricsRegistry: series stem '" + stem +
                     "' must be nonempty and must not end in a digit");
  const auto it = metrics_.lower_bound(stem);
  if (it != metrics_.end() && it->first == stem) {
    Series* series = std::get_if<Series>(&it->second);
    if (series == nullptr) kind_clash(stem);
    POSTAL_REQUIRE(series->size() == count,
                   "MetricsRegistry: series '" + stem + "' already has " +
                       std::to_string(series->size()) + " elements");
    return *series;
  }
  // Every name that starts with the stem sorts right after it; none of
  // them may be a scalar under one of the new element names.
  for (auto s = it; s != metrics_.end() && s->first.starts_with(stem); ++s) {
    const std::optional<ElementName> e = split_element(s->first);
    if (e && e->stem.size() == stem.size() && e->index < count) kind_clash(s->first);
  }
  size_ += count;
  return std::get<Series>(metrics_
                              .emplace_hint(it, std::piecewise_construct,
                                            std::forward_as_tuple(stem),
                                            std::forward_as_tuple(
                                                std::in_place_type<Series>, count))
                              ->second);
}

std::string MetricsRegistry::to_jsonl() const {
  // One ordered walk of the table. Series elements interleave with the
  // names around them ("a.p1" < "a.p10" < "a.p1x" < "a.p2"), so every
  // series the walk has reached stays open as a cursor over its element
  // names, and each step emits the smallest pending name.
  std::string out;
  std::vector<ElementCursor> open;
  auto it = metrics_.begin();
  for (;;) {
    auto least = open.end();
    for (auto c = open.begin(); c != open.end(); ++c) {
      if (least == open.end() || c->name() < least->name()) least = c;
    }
    if (it != metrics_.end() && (least == open.end() || it->first < least->name())) {
      std::visit(
          [&](const auto& metric) {
            if constexpr (std::is_same_v<std::decay_t<decltype(metric)>, Series>) {
              if (!metric.empty()) open.emplace_back(it->first, metric);
            } else {
              append_line(out, it->first, metric);
            }
          },
          it->second);
      ++it;
    } else if (least != open.end()) {
      append_line(out, least->name(), least->metric());
      if (!least->advance()) open.erase(least);
    } else {
      return out;
    }
  }
}

}  // namespace postal::obs
