#include "probes.h"

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>

namespace perfbench {

std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::uint64_t ThreadCpuNs() {
  struct timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

void SpinFor(std::uint64_t ns) {
  const std::uint64_t until = NowNs() + ns;
  while (NowNs() < until) {
  }
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double Fastest(const std::vector<double>& rates) {
  return rates.empty() ? 0.0 : *std::max_element(rates.begin(), rates.end());
}

double Cheapest(const std::vector<double>& costs) {
  return costs.empty() ? 0.0 : *std::min_element(costs.begin(), costs.end());
}

std::size_t SpanLog::TotalsIndex(const char* name) {
  for (std::size_t i = 0; i < totals_.size(); ++i) {
    if (totals_[i].first == name || std::strcmp(totals_[i].first, name) == 0) {
      return i;
    }
  }
  totals_.emplace_back(name, Totals{});
  return totals_.size() - 1;
}

SpanLog::Open SpanLog::OpenSpan(const char* name, std::uint64_t start_ns) {
  Open open{TotalsIndex(name), start_ns, 0, -1};
  if (spans_.size() < kMaxSpans) {
    const std::int64_t parent = stack_.empty() ? -1 : stack_.back().record;
    spans_.push_back(Span{name, start_ns, 0, parent});
    open.record = static_cast<std::int64_t>(spans_.size() - 1);
  } else {
    ++dropped_;
  }
  return open;
}

void SpanLog::Begin(const char* name) {
  stack_.push_back(OpenSpan(name, NowNs()));
}

void SpanLog::End() {
  const std::uint64_t end = NowNs();
  const Open open = stack_.back();
  stack_.pop_back();
  Close(open, end);
}

void SpanLog::Record(const char* name, std::uint64_t start_ns,
                     std::uint64_t end_ns) {
  Close(OpenSpan(name, start_ns), end_ns);
}

void SpanLog::Close(const Open& open, std::uint64_t end) {
  const std::uint64_t dur = end - open.start_ns;
  Totals& t = totals_[open.totals_index].second;
  ++t.count;
  t.total_ns += dur;
  t.self_ns += dur - std::min(dur, open.child_ns);
  if (!stack_.empty()) stack_.back().child_ns += dur;
  if (open.record >= 0) {
    spans_[static_cast<std::size_t>(open.record)].end_ns = end;
  }
}

SpanLog::Totals SpanLog::TotalsFor(const char* name) const {
  for (const auto& [n, t] : totals_) {
    if (std::strcmp(n, name) == 0) return t;
  }
  return Totals{};
}

bdisk::Status TimedSink::SendDatagram(const std::uint8_t* data,
                                      std::size_t size) {
  ScopedSpan span(log_, "net.send");
  if (delay_ns_ != 0) SpinFor(delay_ns_);
  ++sends_;
  return next_->SendDatagram(data, size);
}

bdisk::Status PacingAudit::SendDatagram(const std::uint8_t* data,
                                        std::size_t size) {
  const std::uint64_t now = NowNs();
  if (bytes_ == 0) first_ns_ = now;
  bytes_ += size;
  const double ahead_bytes =
      bytes_ > burst_ ? static_cast<double>(bytes_ - burst_) : 0.0;
  const double due_ns = static_cast<double>(first_ns_) +
                        ahead_bytes * 1e9 / static_cast<double>(rate_);
  const double lag_ms = (static_cast<double>(now) - due_ns) / 1e6;
  min_lag_ms_ = std::min(min_lag_ms_, lag_ms);
  if (lags_ms_ != nullptr) lags_ms_->push_back(lag_ms);
  return next_->SendDatagram(data, size);
}

bdisk::store::IoResult CountingDevice::ReadBlock(std::uint64_t index,
                                                 void* out) {
  ScopedSpan span(log_, "store.device_read");
  if (read_delay_ns_ != 0) SpinFor(read_delay_ns_);
  ++reads_;
  return inner_->ReadBlock(index, out);
}

bdisk::store::IoResult CountingDevice::WriteBlock(std::uint64_t index,
                                                  const void* data) {
  ++writes_;
  return inner_->WriteBlock(index, data);
}

bdisk::store::IoResult CountingDevice::Sync() {
  ++syncs_;
  return inner_->Sync();
}

bdisk::Status WriteSpans(const std::vector<const SpanLog*>& logs,
                         const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return bdisk::Status::Internal("cannot write span file " + path);
  }
  std::fprintf(f, "{\"threads\": [\n");
  for (std::size_t l = 0; l < logs.size(); ++l) {
    const SpanLog& log = *logs[l];
    std::fprintf(f,
                 "{\"thread\": \"%s\", \"spans_dropped\": %llu, "
                 "\"spans\": [\n",
                 log.thread_name().c_str(),
                 static_cast<unsigned long long>(log.spans_dropped()));
    const auto& spans = log.spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      std::fprintf(f, "[\"%s\", %llu, %llu, %lld]%s\n", spans[i].name,
                   static_cast<unsigned long long>(spans[i].start_ns),
                   static_cast<unsigned long long>(spans[i].end_ns),
                   static_cast<long long>(spans[i].parent),
                   i + 1 < spans.size() ? "," : "");
    }
    std::fprintf(f, "]}%s\n", l + 1 < logs.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  const bool ok = std::fclose(f) == 0;
  return ok ? bdisk::Status::OK()
            : bdisk::Status::Internal("short write to span file " + path);
}

}  // namespace perfbench
