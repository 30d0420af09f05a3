#pragma once
/// \file bench.hpp
/// The run context every workload drives, the workload interface, and the
/// shared pieces: timed calls into the engine, update cycles, the
/// full-simulation pricer and the per-layer decomposition.

#include <compare>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "reference.hpp"
#include "serve/engine.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {

using gespmm::kernels::SpmmAlgo;
using gespmm::serve::Engine;
using gespmm::serve::GraphId;
using gespmm::serve::ModelSpec;
using gespmm::serve::RequestResult;
using gespmm::serve::Ticket;

/// Command-line options of one run.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where the traced run writes its Chrome trace.
  std::string trace_out;
};

/// Timed requests every run completes, so p95 has 10 samples beyond it.
inline constexpr std::size_t kMinTimedRequests = 200;
/// Fresh engines built per run, setup_s being the median of all: before
/// the phase at least kMinSetupReps, more until kSetupBudgetS of setup
/// time is spent (so a setup of a few ms is still a median of many), and
/// kLateSetups after it, so one slow spell of the machine does not set it.
inline constexpr int kMinSetupReps = 5;
inline constexpr int kMaxSetupReps = 60;
inline constexpr double kSetupBudgetS = 3.0;
inline constexpr int kLateSetups = 12;
/// Seconds of untimed set-ups before the first timed one.
inline constexpr double kUntimedWarmupS = 3.0;
/// The timed phase is cut into windows of about kWindowMs wall ms (at
/// round boundaries), and the host metrics are taken over the windows in
/// which the hypervisor took the least of the machine's CPU time, until
/// they hold kKeptPhaseShare of the phase clock and kMinTimedRequests
/// requests. On the recording VM that steal share moved between 0 and 27 %
/// from one second to the next, and update-stream's p95 went from 10 ms in
/// runs at 1 % steal to 15 ms in runs at 11 %.
inline constexpr double kWindowMs = 500.0;
inline constexpr double kKeptPhaseShare = 0.25;
/// Steal share of the kept windows above which a run warns that its host
/// clock is not measuring the program alone.
inline constexpr double kStealWarnShare = 0.10;
/// Each workload's single closed-loop client and single engine worker.
inline constexpr int kWorkers = 1;
/// OpenMP threads for the host kernels and the simulator.
inline constexpr int kOmpThreads = 2;

/// One SpMM launch a request ran: the unit of full-simulation pricing and
/// of the per-layer decomposition.
struct Shape {
  const Csr* graph = nullptr;  // owned by the workload
  index_t n = 0;
  std::size_t device = 0;  // index into Run::devices
  SpmmAlgo algo = SpmmAlgo::Crc;

  auto operator<=>(const Shape&) const = default;
};

/// A timed request whose launches are priced by full simulation.
struct PricedRequest {
  std::vector<Shape> launches;  // one per model layer, else one
  double latency_ms = 0.0;
};

/// What a workload's graph-level probes run on.
struct Probe {
  /// Graph the update cycles, overlay and model probes use.
  const Csr* graph = nullptr;
  /// Its width of plain requests.
  index_t width = 0;
  /// The served model, or nullptr: a 2-layer GCN at `width` is compiled.
  const ModelSpec* model = nullptr;
};

class Workload;

class Run {
 public:
  explicit Run(Options o);

  Options opt;
  Tracer tracer;
  /// ServeOptions' default device pair; requests report them by name.
  std::vector<gespmm::gpusim::DeviceSpec> devices;

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t mismatched = 0;

  /// Host ms spent inside engine calls in the timed phase — the phase
  /// clock. Checks between calls are not on it.
  double phase_ms = 0.0;
  std::vector<double> latency_ms;  // timed submit -> wait
  /// In a traced run, timed requests are recorded and muted in turn; the
  /// two halves' latencies give the tracing overhead.
  std::vector<double> traced_ms;
  std::vector<double> untraced_ms;
  std::vector<double> virtual_ms;  // RequestResult::modelled_ms of those
  std::uint64_t timed_plan_hits = 0;  // timed requests whose plans were all cached
  std::vector<double> setup_s;     // every timed set-up
  std::vector<double> update_ms;   // every apply_update
  std::uint64_t updates = 0;
  /// Plan-cache misses of the requests that follow updates.
  std::uint64_t update_plan_misses = 0;
  std::vector<PricedRequest> priced;
  std::vector<double> register_ms;
  /// Root span of the timed phase.
  std::uint64_t phase_span = 0;

  std::size_t device_index(const std::string& name) const;
  /// New engine with the benchmark's load shape.
  std::unique_ptr<Engine> make_engine() const;
  /// Run `w.setup` and record its duration into setup_s.
  std::unique_ptr<Engine> timed_setup(Workload& w);

  /// Time register_graph (recorded into register_ms).
  GraphId register_graph(Engine& eng, const Csr& a);

  /// Submit through `submit` and wait; a throw or a non-Ok status counts
  /// as a failed operation and returns nullptr. Timed requests feed the
  /// phase clock and the latency sample; in a traced run, every other one
  /// runs with the tracer muted.
  template <class Submit>
  const RequestResult* request(Submit&& submit, Ticket& holder, bool timed);

  /// Time one apply_update; false (and a failed operation) on a throw.
  bool update(Engine& eng, GraphId id, const EdgeBatch& batch, bool timed);

  /// Count `bad` mismatching elements of a checked response.
  void verdict(std::size_t bad);

  /// Run a check whose failure (or throw) counts one failed operation.
  template <class Check>
  void checked(const char* what, Check&& check);

  /// Count one failed operation; `mismatch` marks a wrong output (the
  /// run is then not correct), otherwise a throw or a refused request.
  void fail(const std::string& why, bool mismatch = false);

 private:
  std::uint64_t next_request_ = 1;
};

/// One workload: a traffic mix and the inputs it runs on.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Make every input from the seed (untimed).
  virtual void generate(Run& run) = 0;
  /// Construct the engine, register, and warm every plan the timed phase
  /// uses — what setup_s times.
  virtual std::unique_ptr<Engine> setup(Run& run) = 0;
  /// One whole round of timed operations on `eng`, which the workload may
  /// replace with a freshly set-up engine between rounds.
  virtual void round(Run& run, std::unique_ptr<Engine>& eng) = 0;
  /// Untimed checks of the phase's engine once the phase is over.
  virtual void after_phase(Run& run, Engine& eng) = 0;
  /// On a freshly set-up engine: kCycleUpdates updates and one checked
  /// request, for workloads whose timed phase has no updates (a no-op
  /// otherwise), so the update path is measured on every workload's graph.
  virtual void update_cycle(Run& run, Engine& eng) = 0;
  virtual Probe probe() const = 0;
};

std::unique_ptr<Workload> make_workload(const std::string& name);
std::vector<std::string> workload_names();

/// Updates of one update cycle, each a batch of 64 edges.
inline constexpr int kCycleUpdates = 4;
inline constexpr int kBatchInserts = 48;
inline constexpr int kBatchDeletes = 16;

/// Run the whole benchmark for `opt`; returns the process exit code.
int run_benchmark(const Options& opt);

// --------------------------------------------------------------- templates

template <class Submit>
const RequestResult* Run::request(Submit&& submit, Ticket& holder, bool timed) {
  ++attempted;
  const std::uint64_t req = next_request_++;
  const bool recorded = !timed || !opt.trace || req % 2 == 0;
  Tracer::Mute mute(tracer, !recorded);
  Span rs(tracer, "request", timed ? phase_span : 0, req);
  const auto t0 = Clock::now();
  try {
    {
      Span s(tracer, "submit", rs.id(), req);
      holder = submit();
    }
    Span s(tracer, "wait", rs.id(), req);
    holder.wait();
  } catch (const std::exception& e) {
    fail(e.what());
    return nullptr;
  }
  const double ms = ms_since(t0);
  const RequestResult& r = holder.wait();
  if (r.status != gespmm::serve::RequestStatus::Ok) {
    fail("request not executed");
    return nullptr;
  }
  if (timed) {
    phase_ms += ms;
    latency_ms.push_back(ms);
    if (opt.trace) (recorded ? traced_ms : untraced_ms).push_back(ms);
    virtual_ms.push_back(r.modelled_ms);
    if (r.plan_cache_hit) ++timed_plan_hits;
  }
  return &r;
}

template <class Check>
void Run::checked(const char* what, Check&& check) {
  ++attempted;
  try {
    if (!check()) fail(std::string(what) + " mismatch", true);
  } catch (const std::exception& e) {
    fail(std::string(what) + ": " + e.what());
  }
}

}  // namespace perfbench
