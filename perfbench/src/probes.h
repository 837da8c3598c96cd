// Measurement probes the benchmark wraps around the library's public seams:
// clocks, an in-memory span log, a timing/delay decorator for
// net::WireSink, a pacing audit, and a counting decorator for
// store::BlockDevice. Nothing here reaches inside src/: every probe times a
// public call or sits behind a public interface.

#ifndef PERFBENCH_PROBES_H_
#define PERFBENCH_PROBES_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/udp_socket.h"
#include "store/block_device.h"

namespace perfbench {

/// Monotonic wall clock (steady_clock), nanoseconds.
std::uint64_t NowNs();
/// CPU time consumed by the calling thread (CLOCK_THREAD_CPUTIME_ID).
std::uint64_t ThreadCpuNs();
/// Busy-waits `ns` nanoseconds. Injected delays spin rather than sleep so
/// they show in thread CPU time as well as in wall time.
void SpinFor(std::uint64_t ns);

/// Median of `v` (0 for an empty vector).
double Median(std::vector<double> v);
/// The best step of a measurement repeated within a run: the largest rate,
/// or the smallest cost per operation (0 for an empty vector). Other
/// tenants of a shared host only ever make a step slower; on a 4-vCPU
/// cloud VM they slowed whole stretches of a run by 20-40%, which moved a
/// run's median by as much, while its best step stayed within a few
/// percent from run to run.
double Fastest(const std::vector<double>& rates);
double Cheapest(const std::vector<double>& costs);
/// Quantile q in [0, 1] by linear interpolation (0 for an empty vector).
double Quantile(std::vector<double> v, double q);

/// \brief One thread's spans, kept in memory until the run ends.
///
/// Spans nest through an explicit stack: a span's parent is the span open
/// on the same log when it began. Per-name totals (count, total time, self
/// time = duration minus the time covered by child spans) are accumulated
/// exactly for every span; the individual span records are kept up to a
/// cap so a long run cannot exhaust memory.
class SpanLog {
 public:
  struct Span {
    const char* name;
    std::uint64_t start_ns;
    std::uint64_t end_ns;
    /// Index of the parent in spans(), or -1 for a root (or a parent that
    /// fell beyond the cap).
    std::int64_t parent;
  };
  struct Totals {
    std::uint64_t count = 0;
    std::uint64_t total_ns = 0;
    std::uint64_t self_ns = 0;
  };

  /// Span records kept per log; totals keep counting beyond it.
  static constexpr std::size_t kMaxSpans = 400000;

  explicit SpanLog(std::string thread_name)
      : thread_name_(std::move(thread_name)) {}

  void Begin(const char* name);
  void End();
  /// Records a leaf span timed by the caller, under the open span.
  void Record(const char* name, std::uint64_t start_ns, std::uint64_t end_ns);

  /// Totals for `name` (zeroes if never recorded).
  Totals TotalsFor(const char* name) const;
  const std::vector<std::pair<const char*, Totals>>& totals() const {
    return totals_;
  }
  const std::vector<Span>& spans() const { return spans_; }
  const std::string& thread_name() const { return thread_name_; }
  std::uint64_t spans_dropped() const { return dropped_; }

 private:
  struct Open {
    std::size_t totals_index;
    std::uint64_t start_ns;
    std::uint64_t child_ns;
    std::int64_t record;
  };
  std::size_t TotalsIndex(const char* name);
  Open OpenSpan(const char* name, std::uint64_t start_ns);
  void Close(const Open& open, std::uint64_t end_ns);

  std::string thread_name_;
  std::vector<Span> spans_;
  std::vector<Open> stack_;
  std::vector<std::pair<const char*, Totals>> totals_;
  std::uint64_t dropped_ = 0;
};

/// RAII span; a null log makes it free.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name) : log_(log) {
    if (log_ != nullptr) log_->Begin(name);
  }
  ~ScopedSpan() {
    if (log_ != nullptr) log_->End();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
};

/// \brief WireSink decorator directly above the socket: records one
/// "net.send" span per datagram when a log is attached, and spins
/// `delay_ns` inside the span when a delay is injected.
class TimedSink final : public bdisk::net::WireSink {
 public:
  explicit TimedSink(bdisk::net::WireSink* next) : next_(next) {}
  bdisk::Status SendDatagram(const std::uint8_t* data,
                             std::size_t size) override;

  void set_log(SpanLog* log) { log_ = log; }
  void set_delay_ns(std::uint64_t ns) { delay_ns_ = ns; }
  std::uint64_t sends() const { return sends_; }

 private:
  bdisk::net::WireSink* next_;
  SpanLog* log_ = nullptr;
  std::uint64_t delay_ns_ = 0;
  std::uint64_t sends_ = 0;
};

/// \brief WireSink decorator directly below ServeBroadcast: audits pacing
/// against the token-bucket contract. Datagram i (cumulative bytes B_i,
/// including itself) is due at t0 + max(0, B_i - burst) / rate, where t0
/// is the first send; its lag is the send time minus that due time. The
/// bound does not depend on any window length: a sender that is never
/// ahead of rate x elapsed + burst has no negative lag. The audit keeps
/// only the smallest lag; with a non-null `lags_ms` it also appends every
/// datagram's lag there.
class PacingAudit final : public bdisk::net::WireSink {
 public:
  PacingAudit(bdisk::net::WireSink* next, std::uint64_t rate_bytes_per_sec,
              std::uint64_t burst_bytes, std::vector<double>* lags_ms)
      : next_(next), rate_(rate_bytes_per_sec), burst_(burst_bytes),
        lags_ms_(lags_ms) {}
  bdisk::Status SendDatagram(const std::uint8_t* data,
                             std::size_t size) override;

  /// The smallest lag of any datagram sent, milliseconds (negative =
  /// early); 0 before the first send.
  double min_lag_ms() const { return min_lag_ms_; }

 private:
  bdisk::net::WireSink* next_;
  std::uint64_t rate_;
  std::uint64_t burst_;
  std::vector<double>* lags_ms_;
  std::uint64_t first_ns_ = 0;
  std::uint64_t bytes_ = 0;
  double min_lag_ms_ = 0;
};

/// \brief BlockDevice decorator: counts reads, writes and syncs, records
/// one "store.device_read" span per read when a log is attached, and spins
/// `read_delay_ns` inside that span when a delay is injected.
class CountingDevice final : public bdisk::store::BlockDevice {
 public:
  explicit CountingDevice(std::unique_ptr<bdisk::store::BlockDevice> inner)
      : inner_(std::move(inner)) {}

  std::size_t block_size() const override { return inner_->block_size(); }
  std::uint64_t block_count() const override { return inner_->block_count(); }
  bdisk::store::IoResult ReadBlock(std::uint64_t index, void* out) override;
  bdisk::store::IoResult WriteBlock(std::uint64_t index,
                                    const void* data) override;
  bdisk::store::IoResult Sync() override;

  void set_log(SpanLog* log) { log_ = log; }
  void set_read_delay_ns(std::uint64_t ns) { read_delay_ns_ = ns; }

  std::uint64_t reads() const { return reads_; }
  std::uint64_t writes() const { return writes_; }
  std::uint64_t syncs() const { return syncs_; }

 private:
  std::unique_ptr<bdisk::store::BlockDevice> inner_;
  SpanLog* log_ = nullptr;
  std::uint64_t read_delay_ns_ = 0;
  std::uint64_t reads_ = 0;
  std::uint64_t writes_ = 0;
  std::uint64_t syncs_ = 0;
};

/// Writes every log's spans as one JSON document (thread, name, start,
/// end, parent per span) to `path`.
bdisk::Status WriteSpans(const std::vector<const SpanLog*>& logs,
                         const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_PROBES_H_
