// perfbench: the repository benchmark's measuring program (see run.py for
// how it is built and invoked).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --overhead-bound SHARE [--workdir DIR]
//             [--inject-send-delay-us US] [--inject-read-delay-us US]
//
// One run sets the station up several times (setup_s is the median), then
// measures for S seconds, interleaving unpaced station capacity (30%),
// paced serve + listen (45%) and transaction workloads (25%); a traced run
// adds adaptive experiments. Every output is checked. The last stdout line
// is a JSON object: correct, attempted, failed and metrics (the end-to-end
// metrics; with --trace 1 the per-layer metrics instead, after a printed
// per-layer table). Exit status is 0 when every check passed, 1 when a
// check failed, 2 on bad usage.

#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "faults/channel_spec.h"
#include "ida/block.h"
#include "ida/dispersal.h"
#include "phases.h"
#include "runtime/flags.h"
#include "station.h"
#include "store/block_store.h"

namespace {

using perfbench::Median;
using perfbench::NowNs;

struct MetricInfo {
  const char* name;
  const char* unit;
  // Per-layer rows: the end-to-end metric the layer should move, and the
  // workload where it weighs most.
  const char* moves;
  const char* weighs_on;
};

const MetricInfo kEndToEnd[] = {
    {"setup_s", "s", "", ""},
    {"serve_blocks_per_s", "blocks/s", "", ""},
    {"serve_cpu_us_per_block", "us", "", ""},
    {"listen_cpu_us_per_block", "us", "", ""},
    {"transactions_per_s", "txn/s", "", ""},
    {"peak_rss_mib", "MiB", "", ""},
};

const MetricInfo kPerLayer[] = {
    {"bdisk.plan_ms", "ms", "setup_s", "wire_large"},
    {"ida.disperse_us_per_block", "us", "setup_s", "wire_large"},
    {"store.commit_ms", "ms", "setup_s", "wire_large"},
    {"store.device_writes", "count", "setup_s", "wire_large"},
    {"store.device_syncs", "count", "setup_s", "wire_large"},
    {"store.write_amplification", "ratio", "setup_s", "wire_large"},
    {"faults.realize_ms", "ms", "setup_s", "wire_large"},
    {"store.read_us_per_block", "us", "serve_*", "wire_large"},
    {"store.device_reads_per_block", "count", "serve_*", "wire_large"},
    {"store.device_read_us", "us", "serve_*", "wire_large"},
    {"ida.verify_us_per_block", "us", "serve_*, listen_cpu", "wire_large"},
    {"net.encode_us_per_datagram", "us", "serve_*", "wire_small"},
    {"net.send_us_per_datagram", "us", "serve_*", "wire_small"},
    {"net.serve_call_us_per_datagram", "us", "serve_blocks_per_s", "both"},
    {"net.serve_residual_us_per_datagram", "us", "serve_blocks_per_s",
     "both"},
    {"net.pacing_lag_ms_p99", "ms", "failed datagrams", "both"},
    {"net.kernel_dropped", "count", "failed datagrams", "both"},
    {"net.datagrams_lost", "count", "failed datagrams", "both"},
    {"net.recv_us_per_datagram", "us", "listen_cpu", "wire_small"},
    {"net.decode_us_per_datagram", "us", "listen_cpu", "wire_small"},
    {"sim.offer_us_per_call", "us", "listen_cpu", "wire_large"},
    {"sim.offer_accept_ratio", "ratio", "listen_cpu", "wire_large"},
    {"ida.reconstruct_us_per_file", "us", "listen_cpu", "wire_large"},
    {"net.listen_call_us_per_datagram", "us", "listen_cpu", "both"},
    {"net.listen_residual_us_per_datagram", "us", "listen_cpu",
     "wire_small"},
    {"faults.dropped", "count", "none (correctness count)", "wire_large"},
    {"faults.corrupted", "count", "none (correctness count)", "wire_large"},
    {"adaptive.requests_per_s", "req/s", "none (replay throughput)",
     "both"},
    {"sim.requests_ms", "ms", "adaptive.requests_per_s", "wire_large"},
    {"sim.mean_latency_slots", "slots", "adaptive.requests_per_s",
     "wire_large"},
    {"sim.transactions_ms", "ms", "transactions_per_s", "wire_large"},
    {"adaptive.optimize_ms", "ms", "adaptive.requests_per_s", "wire_large"},
    {"adaptive.swaps", "count", "adaptive.requests_per_s", "wire_large"},
    {"trace.overhead_pct", "%", "none (tracing cost)", "both"},
    {"trace.overhead_spread_pct", "%", "none (tracing cost)", "both"},
    {"trace.overhead_resolved", "count", "none (tracing cost)", "both"},
};

// Relative share of --seconds each phase measures for: unpaced capacity,
// paced serve + listen, transaction workloads, and (traced runs only)
// adaptive experiments.
constexpr double kShares[] = {0.3, 0.45, 0.25, 0.3};

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  std::uint64_t trace = 0;
  std::string workdir;
  double overhead_bound = 0;
  double send_delay_us = 0;
  double read_delay_us = 0;
};

// A required flag's value: absent, given twice or without a value is an
// error naming the flag.
bdisk::Result<const char*> RequiredFlag(int* argc, char** argv,
                                        const char* name) {
  BDISK_ASSIGN_OR_RETURN(
      const char* token,
      bdisk::runtime::ConsumeStringFlagOnce(argc, argv, name));
  if (token == nullptr) {
    return bdisk::Status::InvalidArgument(std::string("flag --") + name +
                                          " is required");
  }
  return token;
}

// A non-negative decimal number, all of `token`.
bdisk::Result<double> ParseDouble(const char* name, const char* token) {
  char* end = nullptr;
  const double value = std::strtod(token, &end);
  if (*token == '\0' || *end != '\0' || !(value >= 0)) {
    return bdisk::Status::InvalidArgument(
        std::string("flag --") + name + ": '" + token +
        "' is not a non-negative number");
  }
  return value;
}

bdisk::Result<double> DoubleFlag(int* argc, char** argv, const char* name) {
  BDISK_ASSIGN_OR_RETURN(
      const char* token,
      bdisk::runtime::ConsumeStringFlagOnce(argc, argv, name, "0"));
  return ParseDouble(name, token);
}

bdisk::Status ParseArgs(int argc, char** argv, Args* args) {
  namespace runtime = bdisk::runtime;
  BDISK_ASSIGN_OR_RETURN(const char* workload,
                         RequiredFlag(&argc, argv, "workload"));
  args->workload = workload;
  BDISK_ASSIGN_OR_RETURN(const char* seed, RequiredFlag(&argc, argv, "seed"));
  if (!runtime::ParseUint64Token(seed, &args->seed)) {
    return bdisk::Status::InvalidArgument(
        std::string("flag --seed: '") + seed +
        "' is not a non-negative integer");
  }
  BDISK_ASSIGN_OR_RETURN(const char* seconds,
                         RequiredFlag(&argc, argv, "seconds"));
  BDISK_ASSIGN_OR_RETURN(args->seconds, ParseDouble("seconds", seconds));
  BDISK_ASSIGN_OR_RETURN(const char* trace,
                         RequiredFlag(&argc, argv, "trace"));
  if (!runtime::ParseUint64Token(trace, &args->trace) || args->trace > 1) {
    return bdisk::Status::InvalidArgument(std::string("flag --trace: '") +
                                          trace + "' is not 0 or 1");
  }
  BDISK_ASSIGN_OR_RETURN(
      const char* workdir,
      runtime::ConsumeStringFlagOnce(&argc, argv, "workdir",
                                     ".bench_build/perfbench-run"));
  args->workdir = workdir;
  BDISK_ASSIGN_OR_RETURN(const char* bound,
                         RequiredFlag(&argc, argv, "overhead-bound"));
  BDISK_ASSIGN_OR_RETURN(args->overhead_bound,
                         ParseDouble("overhead-bound", bound));
  BDISK_ASSIGN_OR_RETURN(args->send_delay_us,
                         DoubleFlag(&argc, argv, "inject-send-delay-us"));
  BDISK_ASSIGN_OR_RETURN(args->read_delay_us,
                         DoubleFlag(&argc, argv, "inject-read-delay-us"));
  if (argc > 1) {
    return bdisk::Status::InvalidArgument(std::string("unexpected argument ") +
                                          argv[1]);
  }
  if (args->seconds <= 0) {
    return bdisk::Status::InvalidArgument("flag --seconds must be positive");
  }
  return bdisk::Status::OK();
}

double PeakRssMib() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss: KiB.
}

// Set-up layers timed from outside on the last station's inputs:
// Dispersal::Disperse per file, and StageFile + Commit into a fresh store.
void TimeSetupLayers(const perfbench::Station& st, const std::string& path,
                     perfbench::SpanLog* log, perfbench::Outcome* out) {
  namespace ida = bdisk::ida;
  namespace store = bdisk::store;
  std::uint64_t disperse_ns = 0;
  std::uint64_t blocks = 0;
  std::uint64_t commit_ns = 0;
  auto device = store::FileBlockDevice::Create(
      path, st.device->block_size(), st.device->block_count());
  if (!device.ok()) {
    out->Problem("commit timing device: " + device.status().ToString());
    return;
  }
  auto fresh = store::BlockStore::Format(std::move(*device));
  if (!fresh.ok()) {
    out->Problem("commit timing store: " + fresh.status().ToString());
    return;
  }
  for (bdisk::broadcast::FileIndex f = 0; f < st.program.file_count(); ++f) {
    const auto& pf = st.program.files()[f];
    auto engine = ida::Dispersal::Create(pf.m, pf.n, st.block_size);
    if (!engine.ok()) {
      out->Problem("dispersal: " + engine.status().ToString());
      return;
    }
    std::uint64_t t0 = NowNs();
    auto coded = engine->Disperse(static_cast<ida::FileId>(f), st.contents[f]);
    std::uint64_t t1 = NowNs();
    log->Record("ida.disperse", t0, t1);
    disperse_ns += t1 - t0;
    if (!coded.ok()) {
      out->Problem("Disperse: " + coded.status().ToString());
      return;
    }
    blocks += coded->size();
    ida::StampChecksums(&*coded);
    t0 = NowNs();
    const bdisk::Status staged = (*fresh)->StageFile(*coded);
    t1 = NowNs();
    log->Record("store.stage", t0, t1);
    commit_ns += t1 - t0;
    if (!staged.ok()) {
      out->Problem("StageFile: " + staged.ToString());
      return;
    }
  }
  const std::uint64_t t0 = NowNs();
  const bdisk::Status committed = (*fresh)->Commit();
  const std::uint64_t t1 = NowNs();
  log->Record("store.commit", t0, t1);
  commit_ns += t1 - t0;
  if (!committed.ok()) out->Problem("Commit: " + committed.ToString());
  fresh->reset();
  std::remove(path.c_str());
  out->metrics["ida.disperse_us_per_block"] =
      blocks > 0 ? static_cast<double>(disperse_ns) / 1e3 /
                       static_cast<double>(blocks)
                 : 0.0;
  out->metrics["store.commit_ms"] = static_cast<double>(commit_ns) / 1e6;
}

void PrintTable(const Args& args, const perfbench::Outcome& out) {
  const auto& m = out.metrics;
  auto at = [&](const char* name) {
    auto it = m.find(name);
    return it == m.end() ? 0.0 : it->second;
  };
  std::printf("per-layer breakdown: workload %s, seed %llu\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed));
  std::printf("  %-38s %14s %-6s  %-26s %s\n", "metric", "value", "unit",
              "moves", "weighs on");
  for (const MetricInfo& info : kPerLayer) {
    std::printf("  %-38s %14.4f %-6s  %-26s %s\n", info.name, at(info.name),
                info.unit, info.moves, info.weighs_on);
  }
  std::printf(
      "serve call (unpaced, per datagram) %.3f us = store.read %.3f + "
      "net.encode %.3f (per block) + net.send %.3f (per send) + residual "
      "%.3f; store.read includes ida.verify %.3f and %.2f device reads of "
      "%.3f us\n",
      at("net.serve_call_us_per_datagram"), at("store.read_us_per_block"),
      at("net.encode_us_per_datagram"), at("net.send_us_per_datagram"),
      at("net.serve_residual_us_per_datagram"), at("ida.verify_us_per_block"),
      at("store.device_reads_per_block"), at("store.device_read_us"));
  std::printf(
      "listen call (paced, CPU per datagram) %.3f us = net.recv %.3f + "
      "net.decode %.3f + sim.offer %.3f us/call (accept ratio %.3f) + "
      "ida.reconstruct %.1f us/file + residual %.3f\n",
      at("net.listen_call_us_per_datagram"), at("net.recv_us_per_datagram"),
      at("net.decode_us_per_datagram"), at("sim.offer_us_per_call"),
      at("sim.offer_accept_ratio"), at("ida.reconstruct_us_per_file"),
      at("net.listen_residual_us_per_datagram"));
  std::printf("tracing overhead on serve_blocks_per_s: median %+.2f%%, "
              "IQR %.2f%% against a %.0f%% bound: %s\n",
              at("trace.overhead_pct"), at("trace.overhead_spread_pct"),
              100.0 * args.overhead_bound,
              at("trace.overhead_resolved") > 0 ? "resolved" : "unresolved");
}

// Per span name: calls, time per call, and self time per call (the part
// no child span covers).
void PrintSpanTotals(const perfbench::SpanLogs& logs) {
  std::printf("  %-8s %-30s %10s %14s %14s\n", "thread", "span", "calls",
              "us/call", "self us/call");
  for (const perfbench::SpanLog* log : {&logs.server, &logs.drain,
                                         &logs.layers}) {
    for (const auto& [name, t] : log->totals()) {
      const double calls = static_cast<double>(t.count);
      std::printf("  %-8s %-30s %10llu %14.3f %14.3f\n",
                  log->thread_name().c_str(), name,
                  static_cast<unsigned long long>(t.count),
                  static_cast<double>(t.total_ns) / 1e3 / calls,
                  static_cast<double>(t.self_ns) / 1e3 / calls);
    }
  }
}

void PrintResult(const perfbench::Outcome& out, const MetricInfo* infos,
                 std::size_t count) {
  std::string json = "{\"correct\": ";
  json += out.problems.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < count; ++i) {
    auto it = out.metrics.find(infos[i].name);
    const double value = it == out.metrics.end() ? 0.0 : it->second;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    json += std::string(i == 0 ? "" : ", ") + "\"" + infos[i].name +
            "\": {\"value\": " + buf + ", \"unit\": \"" + infos[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

// Interleaves the phases' steps, always stepping the phase furthest
// behind its share of the time, until every phase has its minimum steps
// and `seconds` have been measured; then finishes each phase.
void RunPhases(const perfbench::PhaseContext& context, double seconds) {
  struct Slot {
    std::unique_ptr<perfbench::Phase> phase;
    double share;
    double used_s = 0;
    int steps = 0;
  };
  std::vector<Slot> slots;
  slots.push_back({perfbench::MakeUnpacedPhase(context), kShares[0]});
  slots.push_back({perfbench::MakePacedPhase(context), kShares[1]});
  auto replay = perfbench::MakeReplayPhases(context);
  slots.push_back({std::move(replay[1]), kShares[2]});
  if (context.logs != nullptr) {
    slots.push_back({std::move(replay[0]), kShares[3]});
  }
  double used_s = 0;
  for (;;) {
    Slot* next = nullptr;
    for (Slot& slot : slots) {
      if (slot.steps < slot.phase->min_steps()) {
        next = &slot;
        break;
      }
    }
    if (next == nullptr) {
      if (used_s >= seconds) break;
      for (Slot& slot : slots) {
        if (next == nullptr ||
            slot.used_s / slot.share < next->used_s / next->share) {
          next = &slot;
        }
      }
    }
    const std::uint64_t t0 = NowNs();
    next->phase->Step();
    const double dt = static_cast<double>(NowNs() - t0) / 1e9;
    next->used_s += dt;
    used_s += dt;
    ++next->steps;
  }
  for (Slot& slot : slots) slot.phase->Finish();
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  const bdisk::Status parsed = ParseArgs(argc, argv, &args);
  if (!parsed.ok()) {
    std::fprintf(stderr,
                 "%s\nusage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --overhead-bound SHARE [--workdir DIR] "
                 "[--inject-send-delay-us US] [--inject-read-delay-us US]\n",
                 parsed.ToString().c_str());
    return 2;
  }
  const perfbench::WorkloadParams* params =
      perfbench::FindWorkload(args.workload);
  if (params == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  const bool traced = args.trace == 1;
  const std::string prefix =
      args.workdir + "/" + std::to_string(getpid()) + "-";

  perfbench::Outcome out;
  perfbench::SpanLogs logs;
  perfbench::PhaseOptions options;
  options.seed = args.seed;
  options.overhead_bound = args.overhead_bound;
  options.send_delay_ns = static_cast<std::uint64_t>(args.send_delay_us * 1e3);
  options.read_delay_ns = static_cast<std::uint64_t>(args.read_delay_us * 1e3);

  // Set-up, several times; the last station serves the run.
  const std::string spec = perfbench::GenerateSpec(*params, args.seed);
  std::vector<double> setup_s, plan_ms, realize_ms;
  std::unique_ptr<perfbench::Station> station;
  for (int k = 0; k < params->setup_repeats; ++k) {
    station.reset();
    auto built = perfbench::SetUp(spec, args.seed, prefix + "store.img");
    if (!built.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n",
                   built.status().ToString().c_str());
      return 1;
    }
    station = std::move(*built);
    setup_s.push_back(static_cast<double>(station->total_ns) / 1e9);
    plan_ms.push_back(static_cast<double>(station->plan_ns) / 1e6);
    realize_ms.push_back(static_cast<double>(station->realize_ns) / 1e6);
  }
  out.metrics["setup_s"] = Median(setup_s);
  std::fprintf(stderr,
               "%s: %zu files, %zu-byte blocks, period %llu slots, data "
               "cycle %llu, %.1f MiB coded\n",
               args.workload.c_str(), station->program.file_count(),
               station->block_size,
               static_cast<unsigned long long>(station->program.period()),
               static_cast<unsigned long long>(
                   station->program.DataCycleLength()),
               static_cast<double>(station->coded_bytes) / (1 << 20));
  if (traced) {
    out.metrics["bdisk.plan_ms"] = Median(plan_ms);
    out.metrics["faults.realize_ms"] = Median(realize_ms);
    out.metrics["store.device_writes"] =
        static_cast<double>(station->setup_writes);
    out.metrics["store.device_syncs"] =
        static_cast<double>(station->setup_syncs);
    out.metrics["store.write_amplification"] =
        static_cast<double>(station->setup_writes *
                            station->device->block_size()) /
        static_cast<double>(station->coded_bytes);
    TimeSetupLayers(*station, prefix + "commit.img", &logs.layers, &out);
  }

  auto wire_channel = bdisk::faults::ParseChannelSpec(
      perfbench::WireChannelSpec(*params, args.seed));
  if (!wire_channel.ok()) {
    std::fprintf(stderr, "wire channel: %s\n",
                 wire_channel.status().ToString().c_str());
    return 1;
  }
  perfbench::PhaseContext context;
  context.params = params;
  context.station = station.get();
  context.wire_channel = params->wire_faults ? wire_channel->get() : nullptr;
  context.options = options;
  context.logs = traced ? &logs : nullptr;
  context.outcome = &out;
  RunPhases(context, args.seconds);
  station.reset();
  out.metrics["peak_rss_mib"] = PeakRssMib();

  const MetricInfo* reported = traced ? kPerLayer : kEndToEnd;
  const std::size_t count =
      traced ? std::size(kPerLayer) : std::size(kEndToEnd);
  for (std::size_t i = 0; i < count; ++i) {
    if (out.metrics.count(reported[i].name) == 0) {
      out.Problem(std::string("metric ") + reported[i].name +
                  " was not measured");
    }
  }
  if (traced) {
    PrintTable(args, out);
    PrintSpanTotals(logs);
    const std::string spans_path = args.workdir + "/spans-" + args.workload +
                                   "-" + std::to_string(args.seed) + ".json";
    const bdisk::Status written =
        perfbench::WriteSpans({&logs.server, &logs.drain, &logs.layers},
                              spans_path);
    if (!written.ok()) out.Problem(written.ToString());
    std::printf("spans: %s\n", spans_path.c_str());
  }
  for (const std::string& problem : out.problems) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", problem.c_str());
  }
  PrintResult(out, reported, count);
  return out.problems.empty() ? 0 : 1;
}
