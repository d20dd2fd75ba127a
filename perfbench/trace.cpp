#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>

#include "bench.hpp"

namespace perfbench {

double Trace::now() const { return std::chrono::duration<double>(Clock::now() - epoch_).count(); }

int Trace::begin(std::string name, std::string layer, int parent, long id, int lane) {
  const double t = now();
  return add(std::move(name), std::move(layer), t, t, parent, id, lane);
}

void Trace::end(int index) { spans_[static_cast<size_t>(index)].end = now(); }

int Trace::add(std::string name, std::string layer, double start, double end, int parent,
               long id, int lane) {
  spans_.push_back(Span{std::move(name), std::move(layer), start, end, parent, id, lane});
  return static_cast<int>(spans_.size()) - 1;
}

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

void Trace::write_chrome_json(const std::string& path) const {
  std::ofstream out(path);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  char buf[128];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf), "\"ts\":%.3f,\"dur\":%.3f", s.start * 1e6,
                  (s.end - s.start) * 1e6);
    out << (i ? ",\n" : "") << "{\"name\":\"" << json_escape(s.name) << "\",\"cat\":\""
        << json_escape(s.layer) << "\",\"ph\":\"X\"," << buf << ",\"pid\":1,\"tid\":" << s.lane
        << ",\"args\":{\"span\":" << i << ",\"parent\":" << s.parent << ",\"id\":" << s.id
        << "}}";
  }
  out << "\n]}\n";
}

std::string Trace::layer_table() const {
  struct Agg {
    std::string layer;
    long count = 0;
    double total = 0;
    double self = 0;
  };
  std::vector<double> child_time(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_time[static_cast<size_t>(s.parent)] += s.end - s.start;
  }
  std::map<std::string, Agg> by_name;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    Agg& a = by_name[s.name];
    a.layer = s.layer;
    a.count += 1;
    a.total += s.end - s.start;
    a.self += s.end - s.start - child_time[i];
  }
  std::ostringstream out;
  char line[256];
  std::snprintf(line, sizeof(line), "%-28s %-9s %8s %12s %12s %12s\n", "span", "layer", "count",
                "total_s", "self_s", "mean_us");
  out << line;
  for (const auto& [name, a] : by_name) {
    std::snprintf(line, sizeof(line), "%-28s %-9s %8ld %12.6f %12.6f %12.3f\n", name.c_str(),
                  a.layer.c_str(), a.count, a.total, a.self,
                  a.total / static_cast<double>(a.count) * 1e6);
    out << line;
  }
  return out.str();
}

}  // namespace perfbench
