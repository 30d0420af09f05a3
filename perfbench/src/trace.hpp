#pragma once
/// \file trace.hpp
/// In-memory span recorder for the traced run. Spans are taken in the
/// benchmark's own code around each call it makes into the library, kept
/// in memory, and written out once as Chrome trace-event JSON. An untraced
/// run never constructs a Span, so it records nothing.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Milliseconds elapsed since `t0`.
inline double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

struct SpanRecord {
  const char* name = "";
  std::uint64_t id = 0;
  /// Enclosing span id; 0 for a root span.
  std::uint64_t parent = 0;
  /// Request the span belongs to; 0 outside the timed requests.
  std::uint64_t request = 0;
  double start_us = 0.0;
  double end_us = 0.0;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  bool enabled() const { return enabled_; }

  /// Open a span and return its id (0 when disabled).
  std::uint64_t open(const char* name, std::uint64_t parent, std::uint64_t request);
  /// Close a span opened by `open`.
  void close(std::uint64_t id);

  const std::vector<SpanRecord>& spans() const { return spans_; }

  /// Write every span as a Chrome trace-event "X" event; throws
  /// std::runtime_error when the file cannot be written.
  void write_chrome_json(const std::string& path) const;

  /// Stops recording while alive, when `active`; restores it on exit.
  class Mute {
   public:
    Mute(Tracer& t, bool active) : t_(t), was_(t.enabled_) {
      if (active) t_.enabled_ = false;
    }
    ~Mute() { t_.enabled_ = was_; }
    Mute(const Mute&) = delete;
    Mute& operator=(const Mute&) = delete;

   private:
    Tracer& t_;
    bool was_;
  };

 private:
  double now_us() const;

  bool enabled_;
  Clock::time_point origin_;
  std::vector<SpanRecord> spans_;
};

/// RAII span; a no-op when `tracer` is disabled.
class Span {
 public:
  Span(Tracer& tracer, const char* name, std::uint64_t parent = 0, std::uint64_t request = 0)
      : tracer_(tracer), id_(tracer.open(name, parent, request)) {}
  ~Span() { tracer_.close(id_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  std::uint64_t id() const { return id_; }

 private:
  Tracer& tracer_;
  std::uint64_t id_;
};

}  // namespace perfbench
