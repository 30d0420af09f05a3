#include "trace.hpp"

#include <fstream>
#include <stdexcept>

#include "bench_common/json.hpp"

namespace perfbench {

double Tracer::now_us() const {
  return std::chrono::duration<double, std::micro>(Clock::now() - origin_).count();
}

std::uint64_t Tracer::open(const char* name, std::uint64_t parent, std::uint64_t request) {
  if (!enabled_) return 0;
  SpanRecord s;
  s.name = name;
  s.id = spans_.size() + 1;
  s.parent = parent;
  s.request = request;
  s.start_us = now_us();
  spans_.push_back(s);
  return s.id;
}

void Tracer::close(std::uint64_t id) {
  if (id == 0) return;
  spans_[id - 1].end_us = now_us();
}

void Tracer::write_chrome_json(const std::string& path) const {
  using gespmm::bench::Json;
  Json events = Json::array();
  for (const auto& s : spans_) {
    Json args = Json::object();
    args.set("id", Json::number(static_cast<double>(s.id)));
    args.set("parent", Json::number(static_cast<double>(s.parent)));
    args.set("request", Json::number(static_cast<double>(s.request)));
    Json e = Json::object();
    e.set("name", Json::string(s.name));
    e.set("ph", Json::string("X"));
    e.set("ts", Json::number(s.start_us));
    e.set("dur", Json::number(s.end_us - s.start_us));
    e.set("pid", Json::number(1));
    e.set("tid", Json::number(1));
    e.set("args", std::move(args));
    events.push_back(std::move(e));
  }
  Json doc = Json::object();
  doc.set("traceEvents", std::move(events));
  doc.set("displayTimeUnit", Json::string("ms"));
  std::ofstream out(path);
  out << doc.dump() << "\n";
  if (!out) throw std::runtime_error("cannot write trace file " + path);
}

}  // namespace perfbench
