#include "net/udp_client.h"

#include <algorithm>
#include <utility>

#include "net/wire.h"

namespace bdisk::net {

Result<UdpClient> UdpClient::Create(const UdpClientOptions& options) {
  if (options.block_size == 0) {
    return Status::InvalidArgument("net: client block_size must be set");
  }
  Endpoint ep;
  ep.host = options.bind_host;
  ep.port = options.port;
  BDISK_ASSIGN_OR_RETURN(UdpSocket socket, UdpSocket::Bind(ep));
  BDISK_RETURN_NOT_OK(socket.SetRecvBufferBytes(options.recv_buffer_bytes));
  return UdpClient(options, std::move(socket));
}

void UdpClient::AddSession(const WireSession& session) {
  const std::size_t index = sessions_.size();
  sessions_.push_back(ActiveSession{
      session,
      sim::ReconstructingClient(static_cast<ida::FileId>(session.file),
                                session.m, session.n, options_.block_size),
      WireSessionResult{}});
  sessions_.back().client.set_require_checksums(options_.require_checksums);
  if (session.start_slot.has_value()) {
    // Prefill so an incomplete result still reports where it listened from.
    sessions_.back().result.start_slot = *session.start_slot;
    pending_starts_.push_back(index);
  } else {
    pending_joiners_.push_back(index);
  }
  // File indices are the program's dense small integers (ida::FileId).
  const std::size_t file = session.file;
  if (file >= listening_.size()) listening_.resize(file + 1);
  ++incomplete_;
}

void UdpClient::TuneInJoiners(std::uint64_t slot) {
  for (const std::size_t i : pending_joiners_) {
    // Mid-stream join: latency counts from the first slot heard.
    sessions_[i].result.start_slot = slot;
    listening_[sessions_[i].spec.file].push_back(i);
  }
  pending_joiners_.clear();
}

void UdpClient::TuneInAt(std::uint64_t slot) {
  TuneInJoiners(slot);
  // An explicit start tunes in only on a block at or after that slot.
  while (!pending_starts_.empty() &&
         *sessions_[pending_starts_.back()].spec.start_slot <= slot) {
    const std::size_t i = pending_starts_.back();
    pending_starts_.pop_back();
    listening_[sessions_[i].spec.file].push_back(i);
  }
}

void UdpClient::OfferToSessions(std::uint64_t slot, std::uint64_t epoch,
                                const ida::Block& block) {
  TuneInAt(slot);
  // The claimed file id is unverified (corruption may have damaged it);
  // one naming no session's file reaches nobody, exactly as every
  // session's OfferEx would have answered kWrongFile.
  if (block.header.file_id >= listening_.size()) return;
  std::vector<std::size_t>& listeners = listening_[block.header.file_id];
  for (std::size_t k = 0; k < listeners.size();) {
    ActiveSession& s = sessions_[listeners[k]];
    const sim::OfferOutcome outcome = s.client.OfferEx(block, epoch);
    if (outcome == sim::OfferOutcome::kChecksumMismatch) {
      // Attribution by claimed identity — see the header-comment caveat.
      ++s.result.session.corrupt_detected;
    }
    if (sim::OfferSatisfied(outcome)) {
      s.result.session.completed = true;
      s.result.session.completion_slot = slot;
      s.result.session.latency = slot - s.result.start_slot + 1;
      --incomplete_;
      // A complete session hears nothing more; order within a file's
      // listeners carries no meaning.
      listeners[k] = listeners.back();
      listeners.pop_back();
      continue;
    }
    ++k;
  }
}

Result<std::vector<WireSessionResult>> UdpClient::Run() {
  std::vector<std::uint8_t> buf(65536);
  std::sort(pending_starts_.begin(), pending_starts_.end(),
            [this](std::size_t a, std::size_t b) {
              return *sessions_[a].spec.start_slot >
                     *sessions_[b].spec.start_slot;
            });
  // Tuning out the moment every session completes (!linger_until_end)
  // sounds like an optimization but silently breaks any sent-vs-received
  // datagram accounting: the unread stream tail looks exactly like kernel
  // loss to the harness. Lingering to the end marker is the default so
  // the stats cover the whole broadcast.
  while ((options_.linger_until_end || incomplete_ > 0) && !stats_.end_seen) {
    BDISK_ASSIGN_OR_RETURN(bool readable,
                           socket_.PollReadable(options_.idle_timeout_ms));
    if (!readable) {
      stats_.timed_out = true;
      break;
    }
    // Drain everything queued before polling again.
    for (;;) {
      BDISK_ASSIGN_OR_RETURN(std::optional<std::size_t> n,
                             socket_.Recv(buf.data(), buf.size()));
      if (!n.has_value()) break;
      ++stats_.datagrams;
      auto decoded = DecodeDatagram(buf.data(), *n);
      if (!decoded.ok()) {
        // Not our traffic (or mangled beyond the header): ignore. Payload
        // corruption is NOT caught here — it rides to OfferEx's checksum.
        ++stats_.decode_errors;
        continue;
      }
      const WireDatagram& d = *decoded;
      if (d.type == DatagramType::kEnd) {
        stats_.end_seen = true;
        break;
      }
      if (d.type == DatagramType::kIdle) {
        ++stats_.idle_datagrams;
        // An idle beacon still tunes mid-stream joiners in: it tells
        // them the broadcast clock.
        TuneInJoiners(d.slot);
        continue;
      }
      ++stats_.block_datagrams;
      OfferToSessions(d.slot, d.epoch, d.block);
    }
  }
  std::vector<WireSessionResult> results;
  results.reserve(sessions_.size());
  for (ActiveSession& s : sessions_) {
    s.result.session.epochs_spanned = s.client.EpochsSpanned();
    if (s.result.session.completed) {
      BDISK_ASSIGN_OR_RETURN(s.result.session.data, s.client.Reconstruct());
    }
    results.push_back(std::move(s.result));
  }
  return results;
}

}  // namespace bdisk::net
