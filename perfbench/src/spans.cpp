#include "spans.hpp"

#include <fstream>
#include <set>
#include <vector>

#include "common.hpp"

namespace pb::trace {

namespace {

struct Record {
  std::string name;
  double t0 = 0.0, t1 = 0.0;
  long parent = -1;
  int rep = 0;
};

struct CountRecord {
  std::string name;
  double value = 0.0;
  int rep = 0;
};

bool g_enabled = false;
int g_rep = 0;
std::vector<Record> g_spans;
std::vector<CountRecord> g_counts;
long g_open = -1;
double g_origin = now_s();

std::string module_of(const std::string& name) {
  return name.substr(0, name.find('.'));
}

/// Totals of the spans and counts of repetition `rep`.
Totals collect(int rep) {
  Totals t;
  std::vector<double> child_s(g_spans.size(), 0.0);
  for (const Record& r : g_spans)
    if (r.parent >= 0) child_s[r.parent] += r.t1 - r.t0;
  for (std::size_t i = 0; i < g_spans.size(); ++i) {
    const Record& r = g_spans[i];
    if (r.rep != rep) continue;
    const double dur = r.t1 - r.t0;
    const double self = dur - child_s[i];
    Layer& l = t.spans[r.name];
    l.total_s += dur;
    l.self_s += self;
    l.calls += 1;
    const std::string mod = module_of(r.name);
    Layer& m = t.modules[mod];
    m.self_s += self;
    // A module's total counts only its outermost spans, so nesting
    // within one module is not counted twice.
    bool nested = false;
    for (long p = r.parent; p >= 0; p = g_spans[p].parent)
      if (module_of(g_spans[p].name) == mod) nested = true;
    if (!nested) {
      m.total_s += dur;
      m.calls += 1;
    }
    if (r.parent < 0) t.wall_s += dur;
  }
  for (const CountRecord& c : g_counts)
    if (c.rep == rep) t.counts[c.name] += c.value;
  return t;
}

}  // namespace

void enable(bool on) { g_enabled = on; }

void set_rep(int rep) { g_rep = rep; }

Span::Span(const char* name) {
  if (!g_enabled) return;
  index_ = static_cast<long>(g_spans.size());
  g_spans.push_back({name, now_s(), 0.0, g_open, g_rep});
  g_open = index_;
}

Span::~Span() {
  if (index_ < 0) return;
  g_spans[index_].t1 = now_s();
  g_open = g_spans[index_].parent;
}

void count(const std::string& name, double v) {
  if (g_enabled) g_counts.push_back({name, v, g_rep});
}

Totals body_totals() {
  std::set<int> reps;
  for (const Record& r : g_spans) reps.insert(r.rep);
  std::vector<Totals> per_rep;
  for (int rep : reps) per_rep.push_back(collect(rep));
  Totals out;
  if (per_rep.empty()) return out;
  auto med_layers = [&](auto member) {
    std::set<std::string> keys;
    for (const Totals& t : per_rep)
      for (const auto& [k, v] : t.*member) keys.insert(k);
    for (const std::string& k : keys) {
      std::vector<double> total, self, calls;
      for (const Totals& t : per_rep) {
        const auto it = (t.*member).find(k);
        const Layer l = it == (t.*member).end() ? Layer{} : it->second;
        total.push_back(l.total_s);
        self.push_back(l.self_s);
        calls.push_back(l.calls);
      }
      (out.*member)[k] = {median(total), median(self), median(calls)};
    }
  };
  med_layers(&Totals::spans);
  med_layers(&Totals::modules);
  std::set<std::string> keys;
  for (const Totals& t : per_rep)
    for (const auto& [k, v] : t.counts) keys.insert(k);
  for (const std::string& k : keys) {
    std::vector<double> v;
    for (const Totals& t : per_rep) {
      const auto it = t.counts.find(k);
      v.push_back(it == t.counts.end() ? 0.0 : it->second);
    }
    out.counts[k] = median(v);
  }
  std::vector<double> wall;
  for (const Totals& t : per_rep) wall.push_back(t.wall_s);
  out.wall_s = median(wall);
  return out;
}

void write_chrome_json(const std::string& path) {
  std::ofstream os(path);
  os << "{\"traceEvents\": [\n";
  for (std::size_t i = 0; i < g_spans.size(); ++i) {
    const Record& r = g_spans[i];
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "\"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": %.3f, "
                  "\"dur\": %.3f",
                  (r.t0 - g_origin) * 1e6, (r.t1 - r.t0) * 1e6);
    os << (i ? ",\n" : "") << "{\"name\": \"" << r.name << "\", " << buf
       << ", \"args\": {\"rep\": " << r.rep << ", \"parent\": " << r.parent
       << "}}";
  }
  os << "\n]}\n";
}

}  // namespace pb::trace
