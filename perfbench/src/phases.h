// The measured phases of one run. Each phase measures in steps of a
// fraction of a second to a few seconds; the run interleaves the steps of
// all phases (main.cc), so a slow spell of the host lands on every metric
// a little instead of on one metric entirely.

#ifndef PERFBENCH_PHASES_H_
#define PERFBENCH_PHASES_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "faults/channel_model.h"
#include "probes.h"
#include "station.h"

namespace perfbench {

/// \brief What a run accumulates: operations, failures, correctness
/// violations, and named metric values.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;
  std::map<std::string, double> metrics;

  /// Records a correctness violation (an output that is wrong, as opposed
  /// to an operation that failed).
  void Problem(const std::string& what) {
    if (problems.size() < 20) problems.push_back(what);
  }
};

struct PhaseOptions {
  std::uint64_t seed = 0;
  /// Tracing overhead is reported as unresolved when the spread of its
  /// paired measurements exceeds this share (the serve_blocks_per_s bound).
  double overhead_bound = 0;
  /// Delays injected through the benchmark's decorators (attribution
  /// self-test); 0 in measured runs.
  std::uint64_t send_delay_ns = 0;
  std::uint64_t read_delay_ns = 0;
};

/// Thread span logs of a traced run.
struct SpanLogs {
  SpanLog server{"server"};
  SpanLog drain{"drain"};
  SpanLog layers{"layers"};
};

/// \brief One measured phase.
class Phase {
 public:
  virtual ~Phase() = default;
  /// Runs one measured step.
  virtual void Step() = 0;
  /// Computes the phase's metrics (traced: also its layer rows) after the
  /// last step.
  virtual void Finish() = 0;
  /// Steps the phase needs at least.
  virtual int min_steps() const = 0;
};

/// Everything a phase borrows; all of it outlives the phases.
struct PhaseContext {
  const WorkloadParams* params = nullptr;
  Station* station = nullptr;
  /// The wire's channel: nullptr when lossless.
  const bdisk::faults::ChannelModel* wire_channel = nullptr;
  PhaseOptions options;
  /// Non-null in traced runs.
  SpanLogs* logs = nullptr;
  Outcome* outcome = nullptr;
};

/// Unpaced station capacity (serve_blocks_per_s).
std::unique_ptr<Phase> MakeUnpacedPhase(const PhaseContext& context);
/// Paced serve + listen (serve_cpu_us_per_block, listen_cpu_us_per_block).
std::unique_ptr<Phase> MakePacedPhase(const PhaseContext& context);
/// The simulator replay, in this order: adaptive experiments (traced runs
/// only) and transaction workloads (transactions_per_s).
std::vector<std::unique_ptr<Phase>> MakeReplayPhases(
    const PhaseContext& context);

}  // namespace perfbench

#endif  // PERFBENCH_PHASES_H_
