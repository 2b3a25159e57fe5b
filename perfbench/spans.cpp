#include "spans.hpp"

#include <algorithm>
#include <chrono>
#include <map>
#include <unordered_map>

#include "common.hpp"

namespace perfbench {

namespace {

std::uint32_t this_tid() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t tid = next.fetch_add(1) + 1;
  return tid;
}

}  // namespace

std::int64_t Spans::now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

void Spans::record(const char* name, std::uint64_t id, std::uint64_t parent,
                   std::int64_t start_ns, std::int64_t end_ns) {
  if (!enabled_) return;
  const SpanRecord r{name, id, parent, this_tid(), start_ns, end_ns};
  std::lock_guard<std::mutex> lock(mu_);
  records_.push_back(r);
}

Spans::Scope::Scope(Spans& spans, const char* name, std::uint64_t parent)
    : spans_(spans), name_(name), parent_(parent) {
  if (!spans_.enabled()) return;
  id_ = spans_.new_id();
  start_ns_ = now_ns();
}

Spans::Scope::~Scope() {
  if (spans_.enabled()) spans_.record(name_, id_, parent_, start_ns_, now_ns());
}

std::size_t Spans::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_.size();
}

std::vector<SelfTime> Spans::self_times() const {
  std::vector<SpanRecord> spans;
  {
    std::lock_guard<std::mutex> lock(mu_);
    spans = records_;
  }
  std::unordered_map<std::uint64_t, std::vector<const SpanRecord*>> children;
  for (const SpanRecord& s : spans) {
    if (s.parent != 0) children[s.parent].push_back(&s);
  }
  std::map<std::string, SelfTime> by_name;
  for (const SpanRecord& s : spans) {
    // Union of the children's intervals clipped to the span.
    std::vector<std::pair<std::int64_t, std::int64_t>> iv;
    const auto it = children.find(s.id);
    if (it != children.end()) {
      for (const SpanRecord* c : it->second) {
        const std::int64_t lo = std::max(c->start_ns, s.start_ns);
        const std::int64_t hi = std::min(c->end_ns, s.end_ns);
        if (hi > lo) iv.emplace_back(lo, hi);
      }
    }
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t cur_lo = 0, cur_hi = -1;
    for (const auto& [lo, hi] : iv) {
      if (lo > cur_hi) {
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    SelfTime& agg = by_name[s.name];
    agg.name = s.name;
    ++agg.count;
    agg.total_ns += s.end_ns - s.start_ns;
    agg.self_ns += s.end_ns - s.start_ns - covered;
  }
  std::vector<SelfTime> out;
  for (auto& [name, agg] : by_name) out.push_back(agg);
  return out;
}

std::string Spans::chrome_json() const {
  std::vector<SpanRecord> spans;
  {
    std::lock_guard<std::mutex> lock(mu_);
    spans = records_;
  }
  std::int64_t epoch = spans.empty() ? 0 : spans.front().start_ns;
  for (const SpanRecord& s : spans) epoch = std::min(epoch, s.start_ns);
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  for (const SpanRecord& s : spans) {
    const std::string name = s.name;
    const std::string layer = name.substr(0, name.rfind('.'));
    out += first ? "\n" : ",\n";
    first = false;
    out += fmt("{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
               "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
               "\"args\":{\"id\":%llu,\"parent\":%llu}}",
               s.name, layer.c_str(), s.tid, (s.start_ns - epoch) / 1e3,
               (s.end_ns - s.start_ns) / 1e3,
               static_cast<unsigned long long>(s.id),
               static_cast<unsigned long long>(s.parent));
  }
  out += "\n],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

}  // namespace perfbench
