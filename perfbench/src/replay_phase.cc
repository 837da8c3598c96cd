// The simulator replay: the drifting-Zipf adaptive experiment that
// `bdisk_planner --adaptive` runs, seeded from the pinwheel plan, and
// multi-item real-time transactions, over a bursty Gilbert channel. It
// touches no bytes, sockets or store.
//
// The replay runs serially. On a 2-thread pool the work is split into two
// fixed halves, so each call waits for the slower of two vCPUs: on a
// shared 4-vCPU host the rate of repeated identical calls then varied by
// +-25%, against +-8% serially.
//
// Of the simulator it calls only ChannelModel, Retrieve, RunRequests,
// RunTransactionWorkload and RunAdaptiveExperiment (and, for the
// cross-check, the ChannelModel variant of RunRetrievalSession), so the
// simulator can change its engine and fault vocabulary underneath without
// the benchmark changing.

#include "adaptive/adaptive_loop.h"
#include "adaptive/program_optimizer.h"
#include "common/random.h"
#include "common/zipf.h"
#include "phases.h"
#include "sim/client.h"

namespace perfbench {

namespace adaptive = bdisk::adaptive;
namespace broadcast = bdisk::broadcast;
namespace sim = bdisk::sim;

namespace {

constexpr double kZipfTheta = 0.95;
constexpr std::size_t kFilesPerTransaction = 3;
// Requests cross-checked against the byte-level session per run.
constexpr int kCrossChecks = 32;
// Payload size of the cross-check's in-memory server: completion slots
// depend only on the program and the channel, not on block size.
constexpr std::size_t kCheckBlockSize = 64;
// Repetitions at least of the transaction workload and of each layer
// timing.
constexpr int kMinReps = 3;

double Ms(std::uint64_t ns) { return static_cast<double>(ns) / 1e6; }

// A seeded sample of requests must complete at the same slot in the
// index-level engine and in the byte-level retrieval session, and the
// byte-level one must reconstruct the exact bytes.
void CrossCheck(const Station& st, const std::vector<sim::ClientRequest>& trace,
                std::uint64_t seed, Outcome* out) {
  const auto contents = GenerateContents(st.program, kCheckBlockSize, seed);
  auto server =
      sim::BroadcastServer::Create(st.program, contents, kCheckBlockSize);
  if (!server.ok()) {
    out->Problem("cross-check server: " + server.status().ToString());
    return;
  }
  bdisk::Rng rng(seed);
  for (int k = 0; k < kCrossChecks; ++k) {
    const sim::ClientRequest& request = trace[rng.Uniform(trace.size())];
    auto index_level = st.simulator->Retrieve(request);
    auto byte_level =
        sim::RunRetrievalSession(*server, *st.replay_channel, request.file,
                                 request.start_slot, st.replay_horizon);
    if (!index_level.ok() || !byte_level.ok()) {
      out->Problem("cross-check retrieval failed");
      return;
    }
    if (index_level->completed != byte_level->completed ||
        (byte_level->completed &&
         index_level->completion_slot != byte_level->completion_slot)) {
      out->Problem("request for file " + std::to_string(request.file) +
                   " from slot " + std::to_string(request.start_slot) +
                   ": engine completes at " +
                   std::to_string(index_level->completion_slot) +
                   ", byte-level session at " +
                   std::to_string(byte_level->completion_slot));
    }
    if (byte_level->completed && byte_level->data != contents[request.file]) {
      out->Problem("byte-level session reconstructed wrong bytes");
    }
  }
}

// What the adaptive and transaction phases share.
struct Replay {
  explicit Replay(const PhaseContext& cx) : cx(cx) {
    const broadcast::BroadcastProgram& program = cx.station->program;
    for (const broadcast::ProgramFile& pf : program.files()) {
      population.push_back({pf.name, pf.m, pf.n, pf.latency_slots});
    }
    workload.requests = cx.params->replay_requests;
    workload.theta = kZipfTheta;
    workload.arrival_horizon = kReplayPeriods * program.period();
    // Two adaptation intervals with the ranking flipped a quarter in: the
    // controller sees mostly post-flip demand in the first interval and
    // its swap governs the second. Each interval end runs the optimizer,
    // whose cost grows with the candidates tried, so it tries one (a hot
    // and a cold frequency class) and the replays keep about half the
    // time.
    workload.flip_slot = workload.arrival_horizon / 4;
    workload.seed = cx.options.seed * 7 + 3;
    interval = workload.arrival_horizon / 2;
    loop.optimizer.class_counts = {2};
    transactions.transactions = cx.params->transactions;
    transactions.files_per_transaction = kFilesPerTransaction;
    transactions.seed = cx.options.seed * 11 + 5;
  }

  SpanLog* log() const {
    return cx.logs != nullptr ? &cx.logs->layers : nullptr;
  }

  std::vector<sim::ClientRequest> Trace() const {
    return adaptive::GenerateDriftingRequests(
        workload, cx.station->program.file_count());
  }

  PhaseContext cx;
  std::vector<broadcast::FlatFileSpec> population;
  adaptive::DriftingZipfWorkload workload;
  std::uint64_t interval = 0;
  adaptive::AdaptiveLoopOptions loop;
  sim::TransactionWorkloadConfig transactions;
};

// Adaptive experiment: a static and an adaptive RunRequests replay of one
// drifting trace, with the controller between them. Traced runs only: an
// experiment takes seconds, about half of them in the optimizer, so a run
// holds only a handful, and in 10-run sets taken while other tenants
// loaded the host their rate spread by up to 26% (interquartile range over
// median), more than any end-to-end bound may be.
class AdaptivePhase final : public Phase {
 public:
  explicit AdaptivePhase(std::shared_ptr<Replay> replay)
      : r_(std::move(replay)), out_(*r_->cx.outcome) {}

  int min_steps() const override { return 1; }

  void Step() override {
    const Station& st = *r_->cx.station;
    const std::uint64_t replayed = 2 * r_->workload.requests;
    out_.attempted += replayed;
    const std::uint64_t t0 = NowNs();
    auto result = [&] {
      ScopedSpan span(r_->log(), "adaptive.RunAdaptiveExperiment");
      // The channel model supersedes the Bernoulli loss arguments.
      return adaptive::RunAdaptiveExperiment(
          r_->population, r_->workload, r_->interval, r_->loop,
          /*loss_probability=*/0.0, /*fault_seed=*/0, /*pool=*/nullptr,
          &st.program, st.replay_channel.get());
    }();
    const std::uint64_t dt = NowNs() - t0;
    if (!result.ok()) {
      out_.failed += replayed;
      return;
    }
    if (result->static_metrics.TotalAttempts() != r_->workload.requests ||
        result->adaptive_metrics.TotalAttempts() != r_->workload.requests) {
      out_.Problem("adaptive experiment lost requests");
    }
    swaps_ = result->swaps;
    rates_.push_back(static_cast<double>(replayed) * 1e9 /
                     static_cast<double>(dt));
  }

  void Finish() override {
    const Station& st = *r_->cx.station;
    const std::vector<sim::ClientRequest> trace = r_->Trace();
    auto& m = out_.metrics;
    m["adaptive.requests_per_s"] = Fastest(rates_);
    m["adaptive.swaps"] = static_cast<double>(swaps_);

    // Layers, timed from outside over the same inputs.
    std::vector<double> requests_ms;
    std::vector<double> optimize_ms;
    auto optimizer =
        adaptive::ProgramOptimizer::Create(r_->population, r_->loop.optimizer);
    if (!optimizer.ok()) {
      out_.Problem("optimizer: " + optimizer.status().ToString());
      return;
    }
    const bdisk::ZipfDistribution zipf(r_->population.size(), kZipfTheta);
    for (int rep = 0; rep < kMinReps; ++rep) {
      std::uint64_t t0 = NowNs();
      auto metrics = [&] {
        ScopedSpan span(r_->log(), "sim.RunRequests");
        return st.simulator->RunRequests(trace, /*pool=*/nullptr);
      }();
      requests_ms.push_back(Ms(NowNs() - t0));
      if (!metrics.ok()) {
        out_.Problem("RunRequests: " + metrics.status().ToString());
        return;
      }
      m["sim.mean_latency_slots"] = metrics->OverallMeanLatency();
      t0 = NowNs();
      auto optimized = [&] {
        ScopedSpan span(r_->log(), "adaptive.Optimize");
        return optimizer->Optimize(zipf.Probabilities(), /*pool=*/nullptr);
      }();
      optimize_ms.push_back(Ms(NowNs() - t0));
      if (!optimized.ok()) {
        out_.Problem("Optimize: " + optimized.status().ToString());
        return;
      }
    }
    m["sim.requests_ms"] = Cheapest(requests_ms);
    m["adaptive.optimize_ms"] = Cheapest(optimize_ms);
  }

 private:
  std::shared_ptr<Replay> r_;
  Outcome& out_;
  std::vector<double> rates_;
  std::size_t swaps_ = 0;
};

// Multi-item real-time transactions on the replay channel.
class TransactionsPhase final : public Phase {
 public:
  explicit TransactionsPhase(std::shared_ptr<Replay> replay)
      : r_(std::move(replay)), out_(*r_->cx.outcome) {}

  int min_steps() const override { return kMinReps; }

  void Step() override {
    const std::uint64_t count = r_->transactions.transactions;
    out_.attempted += count;
    const std::uint64_t t0 = NowNs();
    auto result = [&] {
      ScopedSpan span(r_->log(), "sim.RunTransactionWorkload");
      return r_->cx.station->simulator->RunTransactionWorkload(
          r_->transactions, /*pool=*/nullptr);
    }();
    const std::uint64_t dt = NowNs() - t0;
    if (!result.ok()) {
      out_.failed += count;
      return;
    }
    if (result->attempts() != count) {
      out_.Problem("transaction workload lost transactions");
    }
    rates_.push_back(static_cast<double>(count) * 1e9 /
                     static_cast<double>(dt));
    ms_.push_back(Ms(dt));
  }

  void Finish() override {
    out_.metrics["transactions_per_s"] = Fastest(rates_);
    CrossCheck(*r_->cx.station, r_->Trace(), r_->cx.options.seed * 13 + 1,
               &out_);
    if (r_->cx.logs != nullptr) {
      out_.metrics["sim.transactions_ms"] = Cheapest(ms_);
    }
  }

 private:
  std::shared_ptr<Replay> r_;
  Outcome& out_;
  std::vector<double> rates_;
  std::vector<double> ms_;
};

}  // namespace

std::vector<std::unique_ptr<Phase>> MakeReplayPhases(
    const PhaseContext& context) {
  auto replay = std::make_shared<Replay>(context);
  std::vector<std::unique_ptr<Phase>> phases;
  phases.push_back(std::make_unique<AdaptivePhase>(replay));
  phases.push_back(std::make_unique<TransactionsPhase>(replay));
  return phases;
}

}  // namespace perfbench
