#include "station.h"

#include <cmath>
#include <cstdio>
#include <cstring>

#include "bdisk/block_size.h"
#include "bdisk/spec_parser.h"
#include "common/random.h"
#include "faults/channel_spec.h"
#include "pinwheel/composite_scheduler.h"
#include "sim/epoch.h"
#include "store/block_device.h"

namespace perfbench {

namespace broadcast = bdisk::broadcast;
namespace store = bdisk::store;

namespace {

// Offered paced rates are about half the slower side's capacity measured
// on a 4-core x86-64 container (AVX2 GF kernels, loopback UDP), so a
// faster path shows as lower CPU per block rather than as loss:
//  - wire_small: the listener, ~11 us CPU per datagram with 2000
//    sessions (~90k datagrams/s);
//  - wire_large: the server, ~110 us per datagram (8 preads and a
//    software CRC-32C per 32 KiB block; ~9k datagrams/s).
// Replay sizes keep the two RunRequests replays of an adaptive experiment
// at about half its time; the optimizer runs at each interval end.
const WorkloadParams kWorkloads[] = {
    {
        /*name=*/"wire_small",
        /*block_size=*/1024,
        /*files=*/48,
        /*rotation_choices=*/{4, 8, 16},
        /*wire_faults=*/false,
        /*sessions=*/2000,
        /*paced_slots_per_s=*/40000,
        /*paced_slots=*/40000,
        /*unpaced_slots=*/20000,
        /*replay_requests=*/60000,
        /*transactions=*/10000,
        /*setup_repeats=*/15,
    },
    {
        /*name=*/"wire_large",
        /*block_size=*/32768,
        /*files=*/256,
        /*rotation_choices=*/{4, 8},
        /*wire_faults=*/true,
        /*sessions=*/300,
        /*paced_slots_per_s=*/5000,
        /*paced_slots=*/16000,
        /*unpaced_slots=*/2000,
        /*replay_requests=*/30000,
        /*transactions=*/4000,
        /*setup_repeats=*/5,
    },
};

// Device sector size of the file-backed store (a 32 KiB block spans 8).
constexpr std::size_t kDeviceBlock = 4096;

}  // namespace

const WorkloadParams* FindWorkload(const std::string& name) {
  for (const WorkloadParams& w : kWorkloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::string WireChannelSpec(const WorkloadParams& params, std::uint64_t seed) {
  if (!params.wire_faults) return "lossless";
  return "gilbert:pgb=0.004,pbg=0.25,seed=" + std::to_string(seed) +
         "+corrupt:p=0.004,seed=" + std::to_string(seed + 1);
}

std::string ReplayChannelSpec(std::uint64_t seed) {
  return "gilbert:pgb=0.01,pbg=0.25,seed=" + std::to_string(seed + 2);
}

std::string GenerateSpec(const WorkloadParams& params, std::uint64_t seed) {
  // The file table is the same for every seed, so the planned program
  // (period, utilization, windows) is too and runs with different seeds
  // measure the same work; the seed picks the byte sizes, and through
  // them the contents, and every later input.
  bdisk::Rng rng(seed * 0x9E3779B97F4A7C15ull + 0x51EC);
  const std::uint32_t files = params.files;
  struct File {
    std::uint32_t n;
    std::uint32_t r;
    std::uint64_t window;
  };
  std::vector<File> table;
  std::vector<double> weights;
  double weight_sum = 0;
  const std::size_t choices = params.rotation_choices.size();
  for (std::uint32_t i = 0; i < files; ++i) {
    const std::uint32_t n = params.rotation_choices[i % choices];
    const std::uint32_t r = 1 + (i / choices) % 2;
    table.push_back({n, r, 0});
    // Golden-ratio weights spread the windows evenly over a 3x range.
    weights.push_back(0.5 + std::fmod(i * 0.6180339887498949, 1.0));
    weight_sum += weights.back();
  }
  // Each file's latency window is the power of two nearest its share of
  // the target density; power-of-two windows plan in milliseconds and keep
  // the period short. Windows are then widened until the total density is
  // within the target.
  double density = 0;
  for (std::uint32_t i = 0; i < files; ++i) {
    File& f = table[i];
    const double share = kSpecDensity * weights[i] / weight_sum;
    f.window = std::uint64_t{1}
               << static_cast<int>(std::lround(std::log2(f.n / share)));
    density += static_cast<double>(f.n) / static_cast<double>(f.window);
  }
  while (density > kSpecDensity) {
    File* densest = &table[0];
    for (File& f : table) {
      if (f.n * densest->window > densest->n * f.window) densest = &f;
    }
    density -= static_cast<double>(densest->n) /
               static_cast<double>(2 * densest->window);
    densest->window *= 2;
  }
  std::string text;
  char line[160];
  std::snprintf(line, sizeof(line), "channel %llu\nblocksize %zu\n",
                static_cast<unsigned long long>(kChannelBlocksPerS *
                                                params.block_size),
                params.block_size);
  text += line;
  for (std::uint32_t i = 0; i < files; ++i) {
    const File& f = table[i];
    const std::uint32_t m = f.n - f.r;
    // Half a slot of headroom so floor(bandwidth x latency) is the window.
    const double latency_s =
        (static_cast<double>(f.window) + 0.5) /
        static_cast<double>(kChannelBlocksPerS);
    // Any size in ((m - 1) * b, m * b] disperses into m blocks.
    const std::uint64_t bytes =
        static_cast<std::uint64_t>(m) * params.block_size -
        rng.Uniform(params.block_size);
    std::snprintf(line, sizeof(line),
                  "file f%03u bytes=%llu latency=%.9g faults=%u\n", i,
                  static_cast<unsigned long long>(bytes), latency_s, f.r);
    text += line;
  }
  return text;
}

std::vector<std::vector<std::uint8_t>> GenerateContents(
    const broadcast::BroadcastProgram& program, std::size_t block_size,
    std::uint64_t seed) {
  std::vector<std::vector<std::uint8_t>> contents(program.file_count());
  for (broadcast::FileIndex f = 0; f < program.file_count(); ++f) {
    bdisk::Rng rng(seed * 0x100000001B3ull + f);
    std::vector<std::uint8_t>& bytes = contents[f];
    bytes.resize(program.files()[f].m * block_size);
    for (std::size_t i = 0; i < bytes.size(); i += 8) {
      const std::uint64_t word = rng();
      std::memcpy(bytes.data() + i, &word,
                  std::min<std::size_t>(8, bytes.size() - i));
    }
  }
  return contents;
}

Station::~Station() {
  simulator.reset();
  server.reset();
  store.reset();
  if (!store_path.empty()) std::remove(store_path.c_str());
}

bdisk::Result<std::unique_ptr<Station>> SetUp(const std::string& spec_text,
                                              std::uint64_t seed,
                                              const std::string& store_path) {
  auto st = std::make_unique<Station>();
  const std::uint64_t t0 = NowNs();

  BDISK_ASSIGN_OR_RETURN(broadcast::WorkloadSpec spec,
                         broadcast::ParseWorkloadSpec(spec_text));
  const std::uint64_t plan_start = NowNs();
  bdisk::pinwheel::CompositeScheduler scheduler;
  BDISK_ASSIGN_OR_RETURN(
      broadcast::BlockSizeChoice choice,
      broadcast::ChooseLargestFeasibleBlockSize(
          spec.byte_files, spec.channel_bytes_per_second, scheduler,
          {spec.block_size}));
  st->plan_ns = NowNs() - plan_start;
  st->program = std::move(choice.build.program);
  st->block_size = choice.block_size;
  st->contents = GenerateContents(st->program, st->block_size, seed);

  // Size the device to the program, as `bdisk_planner --store` does.
  std::uint64_t device_blocks = store::BlockStore::kFirstDataBlock;
  std::uint64_t catalog_bytes = 8;
  for (const broadcast::ProgramFile& pf : st->program.files()) {
    device_blocks +=
        pf.n * ((st->block_size + kDeviceBlock - 1) / kDeviceBlock);
    catalog_bytes += 28 + pf.n * 12;
    st->coded_bytes += static_cast<std::uint64_t>(pf.n) * st->block_size;
  }
  device_blocks += 2 * ((catalog_bytes + kDeviceBlock - 1) / kDeviceBlock) + 16;

  st->store_path = store_path;
  std::remove(store_path.c_str());
  BDISK_ASSIGN_OR_RETURN(
      std::unique_ptr<store::FileBlockDevice> file_device,
      store::FileBlockDevice::Create(store_path, kDeviceBlock, device_blocks));
  auto counting = std::make_unique<CountingDevice>(std::move(file_device));
  st->device = counting.get();
  BDISK_ASSIGN_OR_RETURN(st->store,
                         store::BlockStore::Format(std::move(counting)));

  const std::uint64_t writes0 = st->device->writes();
  const std::uint64_t syncs0 = st->device->syncs();
  BDISK_ASSIGN_OR_RETURN(
      bdisk::sim::BroadcastServer server,
      bdisk::sim::BroadcastServer::CreateDiskBacked(
          bdisk::sim::EpochSchedule::Single(st->program), st->contents,
          st->block_size, st->store.get()));
  st->setup_writes = st->device->writes() - writes0;
  st->setup_syncs = st->device->syncs() - syncs0;
  st->server =
      std::make_unique<bdisk::sim::BroadcastServer>(std::move(server));

  BDISK_ASSIGN_OR_RETURN(
      st->replay_channel,
      bdisk::faults::ParseChannelSpec(ReplayChannelSpec(seed)));
  st->replay_horizon = kReplayPeriods * st->program.period() +
                       8 * st->program.DataCycleLength();
  const std::uint64_t realize_start = NowNs();
  st->simulator = std::make_unique<bdisk::sim::Simulator>(
      st->program, *st->replay_channel, st->replay_horizon);
  st->realize_ns = NowNs() - realize_start;
  st->total_ns = NowNs() - t0;
  return st;
}

}  // namespace perfbench
