// Workload definitions and the benchmark's set-up: a seeded byte-domain
// spec is parsed, planned into a pinwheel program, given seeded contents,
// and committed to a file-backed block store behind a disk-backed
// broadcast server; the replay simulator is built over the same program.

#ifndef PERFBENCH_STATION_H_
#define PERFBENCH_STATION_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bdisk/program.h"
#include "faults/channel_model.h"
#include "probes.h"
#include "sim/server.h"
#include "sim/simulation.h"
#include "store/block_store.h"

namespace perfbench {

/// \brief Everything that distinguishes one workload from another. All
/// inputs are derived from these and the run's seed.
struct WorkloadParams {
  std::string name;
  /// Payload bytes per coded block (the spec's `blocksize`).
  std::size_t block_size = 0;
  /// Files in the spec; the file table is the same for every seed.
  std::uint32_t files = 0;
  /// Allowed n = m + r per file. Powers of two keep the program's data
  /// cycle (and with it the replay horizon) short.
  std::vector<std::uint32_t> rotation_choices;
  /// Channel on the wire: true = gilbert+corrupt through FaultingSocket,
  /// false = lossless.
  bool wire_faults = false;
  /// Listener sessions per paced run.
  std::uint32_t sessions = 0;
  /// Offered rate of the paced phase, in slots (datagrams) per second.
  std::uint64_t paced_slots_per_s = 0;
  /// Slots per paced run and per unpaced chunk.
  std::uint64_t paced_slots = 0;
  std::uint64_t unpaced_slots = 0;
  /// Requests in the drifting-Zipf trace of one adaptive experiment.
  std::uint64_t replay_requests = 0;
  /// Transactions per RunTransactionWorkload call.
  std::uint64_t transactions = 0;
  /// Set-ups per run; setup_s is their median.
  int setup_repeats = 0;
};

/// The workloads, by name; nullptr if unknown.
const WorkloadParams* FindWorkload(const std::string& name);

/// The channel spec of the wire (lossless unless params.wire_faults).
std::string WireChannelSpec(const WorkloadParams& params, std::uint64_t seed);
/// The channel spec of the replay phase (always bursty Gilbert loss).
std::string ReplayChannelSpec(std::uint64_t seed);

/// The seeded workload spec (docs/SPEC_FORMAT.md grammar).
std::string GenerateSpec(const WorkloadParams& params, std::uint64_t seed);

/// Seeded file contents: exactly m * block_size bytes for each file.
std::vector<std::vector<std::uint8_t>> GenerateContents(
    const bdisk::broadcast::BroadcastProgram& program,
    std::size_t block_size, std::uint64_t seed);

/// \brief One set-up's products. Heap-allocated and never moved: the
/// server and simulator borrow `program` and `store`.
struct Station {
  bdisk::broadcast::BroadcastProgram program;
  std::size_t block_size = 0;
  std::vector<std::vector<std::uint8_t>> contents;
  std::string store_path;
  std::unique_ptr<bdisk::store::BlockStore> store;
  /// Owned by `store`.
  CountingDevice* device = nullptr;
  std::unique_ptr<bdisk::sim::BroadcastServer> server;
  std::unique_ptr<bdisk::faults::ChannelModel> replay_channel;
  std::unique_ptr<bdisk::sim::Simulator> simulator;
  std::uint64_t replay_horizon = 0;
  /// Coded payload bytes committed (sum over files of n * block_size).
  std::uint64_t coded_bytes = 0;

  // Set-up phase timings.
  std::uint64_t total_ns = 0;
  std::uint64_t plan_ns = 0;
  std::uint64_t realize_ns = 0;
  // Device traffic of CreateDiskBacked.
  std::uint64_t setup_writes = 0;
  std::uint64_t setup_syncs = 0;

  ~Station();
};

/// Total pinwheel density of every generated spec.
inline constexpr double kSpecDensity = 0.8;
/// Modeled channel rate, in blocks per second, every spec is planned at.
inline constexpr std::uint64_t kChannelBlocksPerS = 1000;

/// Drifting-Zipf arrivals span this many program periods.
inline constexpr std::uint64_t kReplayPeriods = 100;

/// Runs one full set-up. `store_path` must be inside the checkout.
bdisk::Result<std::unique_ptr<Station>> SetUp(const std::string& spec_text,
                                              std::uint64_t seed,
                                              const std::string& store_path);

}  // namespace perfbench

#endif  // PERFBENCH_STATION_H_
