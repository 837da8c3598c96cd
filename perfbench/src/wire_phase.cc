// The wire phases.
//
// Unpaced: ServeBroadcast runs as fast as it can into a loopback socket
// that a benchmark thread drains and only counts. Loopback UDP has no
// backpressure, so a real listener could not keep up and its loss would
// depend on the relative speed of the two sides; the unpaced phase
// therefore measures the station's capacity (block datagrams handed to the
// socket per wall second) and never the whole path.
//
// Paced: ServeBroadcast at a fixed offered rate, about half the slower
// side's capacity, to a UdpClient holding every listener session. Nothing
// may be lost here, so the whole path is measured as CPU per block on each
// side, and every datagram and every session is audited.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <optional>
#include <thread>

#include "ida/block.h"
#include "net/faulting_socket.h"
#include "net/udp_client.h"
#include "net/udp_server.h"
#include "net/wire.h"
#include "phases.h"
#include "sim/client.h"

namespace perfbench {

namespace broadcast = bdisk::broadcast;
namespace faults = bdisk::faults;
namespace ida = bdisk::ida;
namespace net = bdisk::net;
namespace sim = bdisk::sim;

namespace {

constexpr int kEndRepeats = 3;
// Short, so a lost end marker costs milliseconds rather than the
// listener's 5 s default.
constexpr int kListenerIdleTimeoutMs = 250;
constexpr int kRecvBufferBytes = 4 << 20;
// A datagram may leave this much before its due time (clock skew between
// the bucket's reservation and the audit's first timestamp).
constexpr double kPacingSlackMs = 1.0;
// Slots fetched per batch when timing serve-side layers outside the call.
constexpr std::uint64_t kLayerBatch = 64;
// Unpaced chunks per step: in a traced run one untraced and one traced
// chunk, in alternating order from step to step.
constexpr int kChunksPerStep = 2;
// Pause of the drain between emptyings of the socket. The drain never
// blocks in poll(2): a blocked receiver makes each loopback send pay for
// a wake-up, so the station's cost would depend on the drain's scheduling.
constexpr std::uint64_t kDrainPauseNs = 100'000;

double UsPer(double ns, double count) {
  return count > 0 ? ns / 1e3 / count : 0.0;
}

std::uint64_t BlockSlots(const broadcast::BroadcastProgram& program,
                         std::uint64_t horizon) {
  std::uint64_t blocks = 0;
  for (std::uint64_t t = 0; t < horizon; ++t) {
    if (program.TransmissionAt(t).has_value()) ++blocks;
  }
  return blocks;
}

// The send-side stack: [FaultingSocket ->] TimedSink -> SocketSink.
class SendChain {
 public:
  SendChain(net::UdpSocket* socket, net::Endpoint dest,
            const faults::ChannelModel* channel, std::uint64_t delay_ns)
      : sink_(socket, dest), timed_(&sink_) {
    timed_.set_delay_ns(delay_ns);
    if (channel != nullptr) {
      faulting_ = std::make_unique<net::FaultingSocket>(channel, &timed_);
    }
  }
  SendChain(const SendChain&) = delete;
  SendChain& operator=(const SendChain&) = delete;

  net::WireSink* top() {
    return faulting_ != nullptr ? static_cast<net::WireSink*>(faulting_.get())
                                : &timed_;
  }
  net::SocketSink& sink() { return sink_; }
  TimedSink& timed() { return timed_; }
  const net::FaultingSocket* faulting() const { return faulting_.get(); }

 private:
  net::SocketSink sink_;
  TimedSink timed_;
  std::unique_ptr<net::FaultingSocket> faulting_;
};

class UnpacedPhase final : public Phase {
 public:
  explicit UnpacedPhase(const PhaseContext& cx)
      : cx_(cx), st_(*cx.station), out_(*cx.outcome) {
    auto drain = net::UdpSocket::Bind(net::Endpoint{});
    auto sender = net::UdpSocket::Open();
    if (!drain.ok() || !sender.ok() ||
        !drain->SetRecvBufferBytes(kRecvBufferBytes).ok()) {
      out_.Problem("unpaced: loopback socket set-up failed");
      return;
    }
    drain_ = std::move(*drain);
    sender_ = std::move(*sender);
    net::Endpoint dest;
    dest.port = drain_.bound_port();
    chain_ = std::make_unique<SendChain>(&sender_, dest, cx.wire_channel,
                                         cx.options.send_delay_ns);
    blocks_per_chunk_ = BlockSlots(st_.program, cx.params->unpaced_slots);
  }

  int min_steps() const override { return cx_.logs != nullptr ? 5 : 3; }

  void Step() override {
    if (chain_ == nullptr) return;
    std::atomic<bool> stop{false};
    bdisk::Status drain_status;
    SpanLog* recv_log = cx_.logs != nullptr ? &cx_.logs->drain : nullptr;
    std::thread drainer([&] {
      std::vector<std::uint8_t> buf(65536);
      while (!stop.load(std::memory_order_relaxed)) {
        for (;;) {
          const std::uint64_t t0 = NowNs();
          auto n = drain_.Recv(buf.data(), buf.size());
          if (!n.ok()) {
            drain_status = n.status();
            return;
          }
          if (!n->has_value()) break;
          if (recv_log != nullptr) recv_log->Record("net.recv", t0, NowNs());
          ++received_;
        }
        PauseNs(kDrainPauseNs);
      }
    });
    // The first chunk of a step follows another phase's step and the
    // drain's start; alternating which chunk is traced keeps that warm-up
    // from biasing the tracing overhead either way.
    for (int k = 0; k < kChunksPerStep; ++k) {
      Chunk(cx_.logs != nullptr && (k + steps_) % 2 == 1);
    }
    ++steps_;
    // Let the drain empty the socket before it stops.
    PauseNs(20 * kDrainPauseNs);
    stop.store(true);
    drainer.join();
    if (!drain_status.ok()) {
      out_.Problem("unpaced drain: " + drain_status.ToString());
    }
  }

  void Finish() override {
    if (chain_ == nullptr) return;
    if (received_ > sent_) {
      out_.Problem("drain received " + std::to_string(received_) +
                   " datagrams, only " + std::to_string(sent_) +
                   " were sent");
    }
    out_.metrics["serve_blocks_per_s"] = Fastest(untraced_rates_);
    if (cx_.logs != nullptr) TimeLayers();
  }

 private:
  static void PauseNs(std::uint64_t ns) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(ns));
  }

  void Chunk(bool traced) {
    SpanLog* log = traced ? &cx_.logs->server : nullptr;
    chain_->timed().set_log(log);
    st_.device->set_log(log);
    st_.device->set_read_delay_ns(cx_.options.read_delay_ns);
    const std::uint64_t reads0 = st_.device->reads();
    const std::uint64_t sends0 = chain_->timed().sends();
    net::UdpServerOptions opts;
    opts.horizon = cx_.params->unpaced_slots;
    opts.end_repeats = kEndRepeats;
    const std::uint64_t t0 = NowNs();
    auto stats = [&] {
      ScopedSpan span(log, "net.ServeBroadcast");
      return net::ServeBroadcast(st_.server.get(), chain_->top(), opts);
    }();
    const std::uint64_t dt = NowNs() - t0;
    // Detached at once, so no later phase's sends or reads are recorded.
    chain_->timed().set_log(nullptr);
    st_.device->set_log(nullptr);
    if (!stats.ok()) {
      out_.Problem("unpaced serve: " + stats.status().ToString());
      return;
    }
    if (stats->block_datagrams != blocks_per_chunk_) {
      out_.Problem("unpaced serve sent " +
                   std::to_string(stats->block_datagrams) +
                   " block datagrams, the program has " +
                   std::to_string(blocks_per_chunk_));
    }
    const std::uint64_t datagrams =
        stats->block_datagrams + stats->idle_datagrams + stats->end_datagrams;
    sent_ += datagrams;
    const double rate = static_cast<double>(stats->block_datagrams) * 1e9 /
                        static_cast<double>(dt);
    (traced ? traced_rates_ : untraced_rates_).push_back(rate);
    if (traced) {
      traced_call_ns_ += dt;
      traced_datagrams_ += datagrams;
      traced_blocks_ += stats->block_datagrams;
      traced_sends_ += chain_->timed().sends() - sends0;
      traced_reads_ += st_.device->reads() - reads0;
    }
  }

  // Serve-side layers, timed from outside over one chunk's slots; the send
  // and device rows come from the traced chunks' spans.
  void TimeLayers() {
    SpanLogs& logs = *cx_.logs;
    std::uint64_t blocks = 0;
    std::uint64_t read_ns = 0;
    std::uint64_t verify_ns = 0;
    std::uint64_t encode_ns = 0;
    const std::uint64_t horizon = cx_.params->unpaced_slots;
    for (std::uint64_t begin = 0; begin < horizon; begin += kLayerBatch) {
      const std::uint64_t end = std::min(begin + kLayerBatch, horizon);
      std::vector<std::pair<std::uint64_t, ida::Block>> batch;
      std::uint64_t t0 = NowNs();
      for (std::uint64_t t = begin; t < end; ++t) {
        auto block = st_.server->FetchTransmission(t);
        if (!block.ok()) {
          out_.Problem("fetch slot " + std::to_string(t) + ": " +
                       block.status().ToString());
          return;
        }
        if (block->has_value()) batch.emplace_back(t, std::move(**block));
      }
      std::uint64_t t1 = NowNs();
      logs.layers.Record("store.read", t0, t1);
      read_ns += t1 - t0;
      std::uint64_t invalid = 0;
      for (const auto& [t, block] : batch) {
        if (ida::VerifyChecksum(block) != ida::ChecksumState::kValid) {
          ++invalid;
        }
      }
      t0 = NowNs();
      logs.layers.Record("ida.verify", t1, t0);
      verify_ns += t0 - t1;
      std::vector<std::vector<std::uint8_t>> encoded;
      encoded.reserve(batch.size());
      for (const auto& [t, block] : batch) {
        encoded.push_back(net::EncodeBlockDatagram(
            t, st_.server->schedule().EpochIndexAt(t), block));
      }
      t1 = NowNs();
      logs.layers.Record("net.encode", t0, t1);
      encode_ns += t1 - t0;
      if (invalid > 0) out_.Problem("served blocks failed their checksum");
      blocks += batch.size();
    }
    const double read_us = UsPer(read_ns, blocks);
    const double encode_us = UsPer(encode_ns, blocks);
    const SpanLog::Totals send = logs.server.TotalsFor("net.send");
    const SpanLog::Totals device = logs.server.TotalsFor("store.device_read");
    const SpanLog::Totals recv = logs.drain.TotalsFor("net.recv");
    const double send_us = UsPer(send.total_ns, send.count);
    const double call_us = UsPer(traced_call_ns_, traced_datagrams_);
    auto& m = out_.metrics;
    m["store.read_us_per_block"] = read_us;
    m["ida.verify_us_per_block"] = UsPer(verify_ns, blocks);
    m["net.encode_us_per_datagram"] = encode_us;
    m["net.send_us_per_datagram"] = send_us;
    m["store.device_read_us"] = UsPer(device.total_ns, device.count);
    m["store.device_reads_per_block"] =
        traced_blocks_ > 0 ? static_cast<double>(traced_reads_) /
                                 static_cast<double>(traced_blocks_)
                           : 0.0;
    m["net.recv_us_per_datagram"] = UsPer(recv.total_ns, recv.count);
    m["net.serve_call_us_per_datagram"] = call_us;
    m["net.serve_residual_us_per_datagram"] =
        call_us -
        (static_cast<double>(traced_blocks_) * (read_us + encode_us) +
         static_cast<double>(traced_sends_) * send_us) /
            static_cast<double>(traced_datagrams_);

    // Tracing overhead: the median over steps of the step's (untraced,
    // traced) chunk pair; a spread wider than the bound leaves it
    // unresolved.
    std::vector<double> overhead;
    for (std::size_t i = 0;
         i < traced_rates_.size() && i < untraced_rates_.size(); ++i) {
      overhead.push_back(100.0 * (untraced_rates_[i] - traced_rates_[i]) /
                         untraced_rates_[i]);
    }
    const double spread =
        Quantile(overhead, 0.75) - Quantile(overhead, 0.25);
    m["trace.overhead_pct"] = Median(overhead);
    m["trace.overhead_spread_pct"] = spread;
    m["trace.overhead_resolved"] =
        spread <= 100.0 * cx_.options.overhead_bound ? 1.0 : 0.0;
  }

  PhaseContext cx_;
  Station& st_;
  Outcome& out_;
  net::UdpSocket drain_;
  net::UdpSocket sender_;
  std::unique_ptr<SendChain> chain_;
  std::uint64_t blocks_per_chunk_ = 0;
  std::uint64_t steps_ = 0;
  std::uint64_t sent_ = 0;
  std::uint64_t received_ = 0;
  std::vector<double> untraced_rates_;
  std::vector<double> traced_rates_;
  std::uint64_t traced_call_ns_ = 0;
  std::uint64_t traced_datagrams_ = 0;
  std::uint64_t traced_blocks_ = 0;
  std::uint64_t traced_sends_ = 0;
  std::uint64_t traced_reads_ = 0;
};

struct PacedRep {
  double serve_us_per_block = 0;
  double listen_us_per_block = 0;
  std::uint64_t listen_cpu_ns = 0;
  std::uint64_t datagrams = 0;
};

class PacedPhase final : public Phase {
 public:
  explicit PacedPhase(const PhaseContext& cx)
      : cx_(cx), st_(*cx.station), out_(*cx.outcome),
        channel_(cx.wire_channel != nullptr ? *cx.wire_channel : lossless_) {
    const WorkloadParams& params = *cx.params;
    const broadcast::BroadcastProgram& program = st_.program;
    std::uint64_t max_window = 0;
    for (const broadcast::ProgramFile& pf : program.files()) {
      max_window = std::max(max_window, pf.latency_slots.front());
    }
    // Sessions start early enough that even a burst beyond r losses leaves
    // room to finish before the horizon.
    const std::uint64_t tail = 2 * max_window;
    if (params.paced_slots <= tail) {
      out_.Problem("paced horizon shorter than two latency windows");
      return;
    }
    bdisk::Rng rng(cx.options.seed * 0xD1B54A32D192ED03ull + 17);
    sessions_.resize(params.sessions);
    for (net::WireSession& s : sessions_) {
      s.file = static_cast<broadcast::FileIndex>(
          rng.Uniform(program.file_count()));
      s.m = program.files()[s.file].m;
      s.n = program.files()[s.file].n;
      s.start_slot = rng.Uniform(params.paced_slots - tail);
    }

    // The index-level engine's verdict for every session on the same
    // channel, and the channel's verdict for every slot.
    sim::Simulator predictor(program, channel_, params.paced_slots);
    for (const net::WireSession& s : sessions_) {
      sim::ClientRequest request;
      request.file = s.file;
      request.start_slot = *s.start_slot;
      auto outcome = predictor.Retrieve(request);
      if (!outcome.ok()) {
        out_.Problem("Retrieve: " + outcome.status().ToString());
        sessions_.clear();
        return;
      }
      predicted_.push_back(*outcome);
    }
    verdicts_.resize(params.paced_slots);
    channel_.FillFaults(0, params.paced_slots, verdicts_.data());
    for (std::uint64_t t = 0; t < params.paced_slots; ++t) {
      if (verdicts_[t] == faults::FaultType::kLost) ++expect_dropped_;
      if (verdicts_[t] == faults::FaultType::kCorrupted &&
          program.TransmissionAt(t).has_value()) {
        ++expect_corrupted_;
      }
    }
    auto sender = net::UdpSocket::Open();
    if (!sender.ok()) {
      out_.Problem("paced: socket set-up failed");
      sessions_.clear();
      return;
    }
    sender_ = std::move(*sender);
    rate_ = params.paced_slots_per_s * (net::kWireHeaderBytes + st_.block_size);
    burst_ = rate_ / 50;
  }

  int min_steps() const override { return 1; }

  void Step() override {
    if (sessions_.empty()) return;
    net::UdpClientOptions co;
    co.block_size = st_.block_size;
    co.idle_timeout_ms = kListenerIdleTimeoutMs;
    co.recv_buffer_bytes = kRecvBufferBytes;
    auto client = net::UdpClient::Create(co);
    if (!client.ok()) {
      out_.Problem("paced: listener set-up: " + client.status().ToString());
      return;
    }
    for (const net::WireSession& s : sessions_) client->AddSession(s);
    net::Endpoint dest;
    dest.port = client->bound_port();
    SendChain chain(&sender_, dest, cx_.wire_channel,
                    cx_.options.send_delay_ns);
    st_.device->set_read_delay_ns(cx_.options.read_delay_ns);
    // Every datagram's lag is kept only in a traced run, and only for
    // this rep: an untraced run must not grow with its length.
    std::vector<double> lags;
    PacingAudit audit(chain.top(), rate_, burst_,
                      cx_.logs != nullptr ? &lags : nullptr);

    std::optional<bdisk::Result<std::vector<net::WireSessionResult>>> results;
    std::uint64_t listen_ns = 0;
    std::thread listener([&] {
      const std::uint64_t c0 = ThreadCpuNs();
      results.emplace(client->Run());
      listen_ns = ThreadCpuNs() - c0;
    });
    net::UdpServerOptions opts;
    opts.horizon = cx_.params->paced_slots;
    opts.bandwidth_bytes_per_sec = rate_;
    opts.burst_bytes = burst_;
    opts.end_repeats = kEndRepeats;
    const std::uint64_t c0 = ThreadCpuNs();
    auto stats = net::ServeBroadcast(st_.server.get(), &audit, opts);
    const std::uint64_t serve_ns = ThreadCpuNs() - c0;
    listener.join();
    if (!stats.ok()) {
      out_.Problem("paced serve: " + stats.status().ToString());
      return;
    }
    if (!results->ok()) {
      out_.Problem("listener: " + results->status().ToString());
      return;
    }

    // Every datagram handed to the socket, except the end-marker repeats
    // the listener deliberately leaves unread, must be heard.
    const net::UdpClientStats& cs = client->stats();
    const std::uint64_t handed =
        chain.sink().sent() + chain.sink().kernel_dropped() - kEndRepeats;
    const std::uint64_t heard = cs.datagrams - (cs.end_seen ? 1 : 0);
    if (heard > handed || cs.decode_errors > 0) {
      out_.Problem("listener heard datagrams that were not sent");
    }
    const std::uint64_t lost = handed > heard ? handed - heard : 0;
    out_.attempted += handed;
    out_.failed += lost;
    lost_ += lost;
    kernel_dropped_ += chain.sink().kernel_dropped();

    const std::uint64_t dropped =
        chain.faulting() != nullptr ? chain.faulting()->dropped() : 0;
    const std::uint64_t corrupted =
        chain.faulting() != nullptr ? chain.faulting()->corrupted() : 0;
    if (dropped != expect_dropped_ || corrupted != expect_corrupted_) {
      out_.Problem("FaultingSocket dropped/corrupted " +
                   std::to_string(dropped) + "/" + std::to_string(corrupted) +
                   ", the channel's verdicts say " +
                   std::to_string(expect_dropped_) + "/" +
                   std::to_string(expect_corrupted_));
    }
    out_.metrics["faults.dropped"] = static_cast<double>(dropped);
    out_.metrics["faults.corrupted"] = static_cast<double>(corrupted);

    if (audit.min_lag_ms() < -kPacingSlackMs) {
      out_.Problem("pacing ran ahead of rate x elapsed + burst by " +
                   std::to_string(-audit.min_lag_ms()) + " ms");
    }
    if (!lags.empty()) lag_p99s_.push_back(Quantile(std::move(lags), 0.99));
    CheckSessions(**results, lost);

    PacedRep rep;
    rep.serve_us_per_block = UsPer(serve_ns, stats->block_datagrams);
    rep.listen_us_per_block = UsPer(listen_ns, cs.block_datagrams);
    rep.listen_cpu_ns = listen_ns;
    rep.datagrams = cs.datagrams;
    reps_.push_back(rep);
  }

  void Finish() override {
    if (reps_.empty()) return;
    std::vector<double> serve;
    std::vector<double> listen;
    for (const PacedRep& r : reps_) {
      serve.push_back(r.serve_us_per_block);
      listen.push_back(r.listen_us_per_block);
    }
    auto& m = out_.metrics;
    m["serve_cpu_us_per_block"] = Cheapest(serve);
    m["listen_cpu_us_per_block"] = Cheapest(listen);
    m["net.kernel_dropped"] = static_cast<double>(kernel_dropped_);
    m["net.datagrams_lost"] = static_cast<double>(lost_);
    if (cx_.logs == nullptr) return;
    m["net.pacing_lag_ms_p99"] = Median(lag_p99s_);
    std::sort(reps_.begin(), reps_.end(),
              [](const PacedRep& a, const PacedRep& b) {
                return a.listen_us_per_block < b.listen_us_per_block;
              });
    TimeListenerLayers(reps_[reps_.size() / 2]);
  }

 private:
  void CheckSessions(const std::vector<net::WireSessionResult>& results,
                     std::uint64_t lost) {
    for (std::size_t i = 0; i < sessions_.size(); ++i) {
      ++out_.attempted;
      const sim::SessionResult& r = results[i].session;
      const broadcast::ProgramFile& pf =
          st_.program.files()[sessions_[i].file];
      if (!r.completed) {
        ++out_.failed;
        continue;
      }
      if (r.data != st_.contents[sessions_[i].file]) {
        out_.Problem("session " + std::to_string(i) +
                     " reconstructed wrong bytes");
      }
      if (lost > 0) continue;  // Loss already failed the run.
      if (!predicted_[i].completed ||
          predicted_[i].completion_slot != r.completion_slot) {
        out_.Problem("session " + std::to_string(i) + " completed at slot " +
                     std::to_string(r.completion_slot) +
                     ", the index-level engine says " +
                     std::to_string(predicted_[i].completion_slot));
      }
      // The paper's guarantee: on a lossless channel every retrieval
      // completes within its file's pinwheel latency bound.
      if (cx_.wire_channel == nullptr && r.latency > pf.latency_slots.front()) {
        out_.Problem("session " + std::to_string(i) + " took " +
                     std::to_string(r.latency) +
                     " slots on a lossless channel, over its bound " +
                     std::to_string(pf.latency_slots.front()));
      }
    }
  }

  // Times the listener-side layers from outside: the decode and the
  // OfferEx calls UdpClient::Run makes for the same sessions over the same
  // (faulted) slots, then each session's Reconstruct.
  void TimeListenerLayers(const PacedRep& rep) {
    SpanLog& log = cx_.logs->layers;
    std::vector<sim::ReconstructingClient> clients;
    clients.reserve(sessions_.size());
    for (const net::WireSession& s : sessions_) {
      clients.emplace_back(static_cast<ida::FileId>(s.file), s.m, s.n,
                           st_.block_size);
      clients.back().set_require_checksums(true);
    }
    std::vector<bool> done(sessions_.size(), false);
    std::vector<std::size_t> active;
    std::uint64_t decode_ns = 0;
    std::uint64_t decoded = 0;
    std::uint64_t offer_ns = 0;
    std::uint64_t offers = 0;
    std::uint64_t accepted = 0;
    for (std::uint64_t t = 0; t < verdicts_.size(); ++t) {
      if (verdicts_[t] == faults::FaultType::kLost) continue;
      auto block = st_.server->FetchTransmission(t);
      if (!block.ok()) {
        out_.Problem("fetch slot " + std::to_string(t) + ": " +
                     block.status().ToString());
        return;
      }
      if (!block->has_value()) continue;
      if (verdicts_[t] == faults::FaultType::kCorrupted) {
        channel_.CorruptBlock(t, &**block);
      }
      const std::uint64_t epoch = st_.server->schedule().EpochIndexAt(t);
      const std::vector<std::uint8_t> datagram =
          net::EncodeBlockDatagram(t, epoch, **block);
      std::uint64_t t0 = NowNs();
      auto d = net::DecodeDatagram(datagram.data(), datagram.size());
      std::uint64_t t1 = NowNs();
      log.Record("net.decode", t0, t1);
      decode_ns += t1 - t0;
      ++decoded;
      if (!d.ok() || d->block.payload != (*block)->payload ||
          d->block.header.checksum != (*block)->header.checksum) {
        out_.Problem("datagram of slot " + std::to_string(t) +
                     " did not decode to the block encoded");
        return;
      }
      active.clear();
      for (std::size_t i = 0; i < sessions_.size(); ++i) {
        if (!done[i] && *sessions_[i].start_slot <= t) active.push_back(i);
      }
      t0 = NowNs();
      for (std::size_t i : active) {
        const sim::OfferOutcome o = clients[i].OfferEx(d->block, epoch);
        if (o == sim::OfferOutcome::kAccepted ||
            o == sim::OfferOutcome::kCompleted) {
          ++accepted;
        }
        if (sim::OfferSatisfied(o)) done[i] = true;
      }
      t1 = NowNs();
      log.Record("sim.offer", t0, t1);
      offer_ns += t1 - t0;
      offers += active.size();
    }
    std::uint64_t reconstruct_ns = 0;
    std::uint64_t reconstructed = 0;
    for (std::size_t i = 0; i < sessions_.size(); ++i) {
      if (!done[i]) continue;
      const std::uint64_t t0 = NowNs();
      auto data = clients[i].Reconstruct();
      const std::uint64_t t1 = NowNs();
      log.Record("ida.reconstruct", t0, t1);
      reconstruct_ns += t1 - t0;
      ++reconstructed;
      if (!data.ok() || *data != st_.contents[sessions_[i].file]) {
        out_.Problem("listener-layer replay reconstructed wrong bytes");
      }
    }
    auto& m = out_.metrics;
    const double recv_us = m["net.recv_us_per_datagram"];
    const double call_us = UsPer(rep.listen_cpu_ns, rep.datagrams);
    m["net.decode_us_per_datagram"] = UsPer(decode_ns, decoded);
    m["sim.offer_us_per_call"] = UsPer(offer_ns, offers);
    m["sim.offer_accept_ratio"] =
        offers > 0
            ? static_cast<double>(accepted) / static_cast<double>(offers)
            : 0.0;
    m["ida.reconstruct_us_per_file"] = UsPer(reconstruct_ns, reconstructed);
    m["net.listen_call_us_per_datagram"] = call_us;
    m["net.listen_residual_us_per_datagram"] =
        call_us - recv_us -
        UsPer(decode_ns + offer_ns + reconstruct_ns, rep.datagrams);
  }

  PhaseContext cx_;
  Station& st_;
  Outcome& out_;
  faults::LosslessChannel lossless_;
  const faults::ChannelModel& channel_;
  std::vector<net::WireSession> sessions_;
  std::vector<sim::RetrievalOutcome> predicted_;
  std::vector<faults::FaultType> verdicts_;
  std::uint64_t expect_dropped_ = 0;
  std::uint64_t expect_corrupted_ = 0;
  net::UdpSocket sender_;
  std::uint64_t rate_ = 0;
  std::uint64_t burst_ = 0;
  std::vector<PacedRep> reps_;
  // Each traced rep's p99 pacing lag, ms.
  std::vector<double> lag_p99s_;
  std::uint64_t kernel_dropped_ = 0;
  std::uint64_t lost_ = 0;
};

}  // namespace

std::unique_ptr<Phase> MakeUnpacedPhase(const PhaseContext& context) {
  return std::make_unique<UnpacedPhase>(context);
}

std::unique_ptr<Phase> MakePacedPhase(const PhaseContext& context) {
  return std::make_unique<PacedPhase>(context);
}

}  // namespace perfbench
