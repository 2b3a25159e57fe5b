#include "obs/journal.hpp"

#include <sys/stat.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <unordered_set>

#include "obs/metrics.hpp"

namespace nup::obs {

namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

constexpr std::uint8_t kMaxKind =
    static_cast<std::uint8_t>(JournalKind::kDesignCompiled);

}  // namespace

const char* to_string(JournalKind kind) {
  switch (kind) {
    case JournalKind::kNone: return "none";
    case JournalKind::kFrameAdmitted: return "frame.admitted";
    case JournalKind::kFrameCompleted: return "frame.completed";
    case JournalKind::kFrameFailed: return "frame.failed";
    case JournalKind::kFrameCancelled: return "frame.cancelled";
    case JournalKind::kTileExecuted: return "tile.executed";
    case JournalKind::kTileSkipped: return "tile.skipped";
    case JournalKind::kDepResolved: return "dep.resolved";
    case JournalKind::kSlabLeased: return "slab.leased";
    case JournalKind::kSlabRecycled: return "slab.recycled";
    case JournalKind::kPassStarted: return "pass.started";
    case JournalKind::kDepthViolation: return "fifo.depth_violation";
    case JournalKind::kDeadlock: return "deadlock";
    case JournalKind::kDesignCompiled: return "design.compiled";
  }
  return "unknown";
}

/// One 64-byte seqlock slot. seq: 0 = never written, odd = write in
/// progress, even = the payload words are consistent for that sequence.
struct alignas(64) JournalSlot {
  std::atomic<std::uint64_t> seq{0};
  std::atomic<std::uint64_t> w[7] = {};
};

struct Journal::ThreadRing {
  explicit ThreadRing(std::size_t cap_)
      : cap(cap_), slots(new JournalSlot[cap_]) {}

  const std::size_t cap;  ///< power of two
  std::unique_ptr<JournalSlot[]> slots;
  /// The holding thread's id and write position: touched only by that
  /// thread, and handed to the next holder under Impl::mu.
  std::uint32_t tid = 0;
  std::uint64_t head = 0;
  std::atomic<std::uint64_t> written{0};

  /// A thread that held this ring; its events are the ring's writes
  /// [first, end), with end set when the thread let go.
  struct Owner {
    std::uint32_t tid = 0;
    std::string name;
    std::uint64_t first = 0;
    std::uint64_t end = 0;
  };
  /// Holders whose events may still be in the ring, the current one last.
  /// Guarded by Impl::mu.
  std::vector<Owner> owners;
};

struct Journal::Impl {
  std::uint64_t id = 0;
  std::size_t cap = 0;
  std::atomic<bool> enabled{true};
  std::atomic<std::uint64_t> dropped{0};
  std::atomic<std::uint64_t> dump_seq{0};

  mutable std::mutex mu;  ///< rings, intern table, post-mortem dir
  std::vector<std::unique_ptr<ThreadRing>> rings;  ///< held or free
  std::vector<ThreadRing*> free_rings;  ///< let go by exited threads
  std::uint32_t next_tid = 0;
  std::vector<std::string> names{std::string()};  ///< id 0 = anonymous
  std::unordered_map<std::string, std::uint32_t> name_ids;
  std::string dir;

  /// The calling thread's ring, taken on its first call (null once the
  /// ring budget is exhausted). Keyed by journal instance id so a thread
  /// can record into several journals at once. The ring goes back when
  /// the thread exits; the deleter's copy of `impl` keeps the journal's
  /// state alive until then.
  static ThreadRing* local_ring(const std::shared_ptr<Impl>& impl) {
    thread_local std::unordered_map<std::uint64_t, std::shared_ptr<ThreadRing>>
        t_rings;
    const auto [it, fresh] = t_rings.try_emplace(impl->id);
    if (fresh) {
      if (ThreadRing* const ring = impl->acquire()) {
        it->second.reset(ring, [impl](ThreadRing* r) { impl->release(r); });
      }
    }
    return it->second.get();
  }

  /// A free ring (forgetting the holders it has since overwritten) or a
  /// new one within the budget, under a fresh thread id.
  ThreadRing* acquire() {
    std::lock_guard<std::mutex> lock(mu);
    ThreadRing* ring = nullptr;
    if (!free_rings.empty()) {
      ring = free_rings.back();
      free_rings.pop_back();
      std::erase_if(ring->owners, [ring](const ThreadRing::Owner& o) {
        return o.end == o.first || o.end + ring->cap <= ring->head;
      });
    } else if (rings.size() < kMaxThreadRings) {
      rings.push_back(std::make_unique<ThreadRing>(cap));
      ring = rings.back().get();
    } else {
      return nullptr;
    }
    ring->tid = next_tid++ & 0xffffff;  // the slot keeps 24 bits
    ring->owners.push_back({ring->tid, std::string(), ring->head, 0});
    return ring;
  }

  void release(ThreadRing* ring) {
    std::lock_guard<std::mutex> lock(mu);
    ring->owners.back().end = ring->head;
    free_rings.push_back(ring);
  }
};

namespace {
std::atomic<std::uint64_t> g_next_journal_id{1};
std::atomic<std::uint64_t> g_next_frame_id{1};
}  // namespace

std::uint64_t next_frame_id() {
  return g_next_frame_id.fetch_add(1, std::memory_order_relaxed);
}

Journal::Journal(std::size_t ring_capacity) : impl_(std::make_shared<Impl>()) {
  impl_->id = g_next_journal_id.fetch_add(1, std::memory_order_relaxed);
  impl_->cap = round_up_pow2(std::max<std::size_t>(ring_capacity, 8));
}

Journal::~Journal() = default;

std::uint32_t Journal::intern(std::string_view name) {
  if (name.empty()) return 0;
  std::lock_guard<std::mutex> lock(impl_->mu);
  const auto it = impl_->name_ids.find(std::string(name));
  if (it != impl_->name_ids.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(impl_->names.size());
  impl_->names.emplace_back(name);
  impl_->name_ids.emplace(std::string(name), id);
  return id;
}

void Journal::record(JournalKind kind, std::uint64_t frame, std::int32_t stage,
                     std::int64_t tile, std::int64_t a, std::int64_t b,
                     std::uint32_t name_id) noexcept {
  Impl& im = *impl_;
  if (!im.enabled.load(std::memory_order_relaxed)) return;
  ThreadRing* const ring = Impl::local_ring(impl_);
  if (ring == nullptr) {
    im.dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }

  JournalSlot& slot = ring->slots[ring->head & (ring->cap - 1)];
  ++ring->head;

  const std::uint64_t seq0 = slot.seq.load(std::memory_order_relaxed);
  slot.seq.store(seq0 + 1, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
  slot.w[0].store(static_cast<std::uint64_t>(now_ns()),
                  std::memory_order_relaxed);
  slot.w[1].store(frame, std::memory_order_relaxed);
  slot.w[2].store(static_cast<std::uint64_t>(static_cast<std::uint8_t>(kind)) |
                      (static_cast<std::uint64_t>(ring->tid) << 8) |
                      (static_cast<std::uint64_t>(name_id) << 32),
                  std::memory_order_relaxed);
  slot.w[3].store(static_cast<std::uint64_t>(
                      static_cast<std::int64_t>(stage)),
                  std::memory_order_relaxed);
  slot.w[4].store(static_cast<std::uint64_t>(tile), std::memory_order_relaxed);
  slot.w[5].store(static_cast<std::uint64_t>(a), std::memory_order_relaxed);
  slot.w[6].store(static_cast<std::uint64_t>(b), std::memory_order_relaxed);
  slot.seq.store(seq0 + 2, std::memory_order_release);
  ring->written.fetch_add(1, std::memory_order_relaxed);
}

void Journal::set_thread_name(std::string name) {
  ThreadRing* const ring = Impl::local_ring(impl_);
  if (ring == nullptr) return;
  std::lock_guard<std::mutex> lock(impl_->mu);
  ring->owners.back().name = std::move(name);
}

std::vector<JournalRecord> Journal::snapshot(std::size_t last_n) const {
  Impl& im = *impl_;
  std::vector<const ThreadRing*> rings;
  std::vector<std::string> names;
  {
    std::lock_guard<std::mutex> lock(im.mu);
    for (const auto& ring : im.rings) rings.push_back(ring.get());
    names = im.names;
  }

  std::vector<JournalRecord> out;
  for (const ThreadRing* ring : rings) {
    for (std::size_t i = 0; i < ring->cap; ++i) {
      const JournalSlot& slot = ring->slots[i];
      const std::uint64_t s1 = slot.seq.load(std::memory_order_acquire);
      if (s1 == 0 || (s1 & 1) != 0) continue;  // unwritten or mid-write
      std::uint64_t w[7];
      for (int k = 0; k < 7; ++k) {
        w[k] = slot.w[k].load(std::memory_order_relaxed);
      }
      std::atomic_thread_fence(std::memory_order_acquire);
      if (slot.seq.load(std::memory_order_relaxed) != s1) continue;  // torn

      const auto kind_byte = static_cast<std::uint8_t>(w[2] & 0xff);
      if (kind_byte == 0 || kind_byte > kMaxKind) continue;
      JournalRecord r;
      r.ts_ns = static_cast<std::int64_t>(w[0]);
      r.kind = static_cast<JournalKind>(kind_byte);
      r.thread = static_cast<std::uint32_t>((w[2] >> 8) & 0xffffff);
      const auto name_id = static_cast<std::uint32_t>(w[2] >> 32);
      if (name_id < names.size()) r.name = names[name_id];
      r.frame = w[1];
      r.stage = static_cast<std::int32_t>(static_cast<std::int64_t>(w[3]));
      r.tile = static_cast<std::int64_t>(w[4]);
      r.a = static_cast<std::int64_t>(w[5]);
      r.b = static_cast<std::int64_t>(w[6]);
      out.push_back(std::move(r));
    }
  }
  std::sort(out.begin(), out.end(),
            [](const JournalRecord& x, const JournalRecord& y) {
              if (x.ts_ns != y.ts_ns) return x.ts_ns < y.ts_ns;
              return x.thread < y.thread;
            });
  if (last_n > 0 && out.size() > last_n) {
    out.erase(out.begin(), out.end() - static_cast<std::ptrdiff_t>(last_n));
  }
  return out;
}

std::uint64_t Journal::recorded() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  std::uint64_t total = 0;
  for (const auto& ring : impl_->rings) {
    total += ring->written.load(std::memory_order_relaxed);
  }
  return total;
}

std::uint64_t Journal::dropped() const {
  return impl_->dropped.load(std::memory_order_relaxed);
}

std::size_t Journal::capacity_bytes() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->rings.size() * impl_->cap * sizeof(JournalSlot);
}

void Journal::set_enabled(bool enabled) {
  impl_->enabled.store(enabled, std::memory_order_relaxed);
}

bool Journal::enabled() const {
  return impl_->enabled.load(std::memory_order_relaxed);
}

void Journal::set_postmortem_dir(std::string dir) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  impl_->dir = std::move(dir);
}

std::string Journal::postmortem_dir() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->dir;
}

std::string Journal::dump_postmortem(const PostmortemInfo& info,
                                     const Registry* metrics) {
  std::string dir;
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    dir = impl_->dir;
  }
  if (dir.empty()) return std::string();

  const std::vector<JournalRecord> events =
      snapshot(info.last_n == 0 ? 256 : info.last_n);

  std::string json;
  json.reserve(4096 + events.size() * 160);
  json += "{\n  \"reason\": ";
  append_json_string(json, info.reason);
  json += ",\n  \"detail\": ";
  append_json_string(json, info.detail);
  json += ",\n  \"frame\": " + std::to_string(info.frame);
  json += ",\n  \"stage\": " + std::to_string(info.stage);
  json += ",\n  \"tile\": " + std::to_string(info.tile);
  if (!info.design.empty()) {
    json += ",\n  \"design\": ";
    append_json_string(json, info.design);
  }
  if (info.has_fifo) {
    json += ",\n  \"fifo\": {\"array\": ";
    append_json_string(json, info.fifo.array);
    json += ", \"index\": " + std::to_string(info.fifo.fifo);
    json += ", \"depth\": " + std::to_string(info.fifo.depth);
    json += ", \"high_water\": " + std::to_string(info.fifo.high_water);
    json += std::string(", \"word_level\": ") +
            (info.fifo.word_level ? "true" : "false") + "}";
  }
  json += ",\n  \"journal\": {\"recorded\": " + std::to_string(recorded());
  json += ", \"dropped\": " + std::to_string(dropped());
  json += ", \"capacity_bytes\": " + std::to_string(capacity_bytes()) + "}";
  json += ",\n  \"events\": [";
  for (std::size_t i = 0; i < events.size(); ++i) {
    const JournalRecord& r = events[i];
    json += i == 0 ? "\n" : ",\n";
    json += "    {\"ts_ns\": " + std::to_string(r.ts_ns);
    json += ", \"kind\": ";
    append_json_string(json, to_string(r.kind));
    json += ", \"thread\": " + std::to_string(r.thread);
    json += ", \"frame\": " + std::to_string(r.frame);
    json += ", \"stage\": " + std::to_string(r.stage);
    json += ", \"tile\": " + std::to_string(r.tile);
    json += ", \"a\": " + std::to_string(r.a);
    json += ", \"b\": " + std::to_string(r.b);
    if (!r.name.empty()) {
      json += ", \"name\": ";
      append_json_string(json, r.name);
    }
    json += "}";
  }
  json += "\n  ]";
  if (metrics != nullptr) {
    json += ",\n  \"metrics\": " + metrics->snapshot().to_json();
  }
  json += "\n}\n";

  ::mkdir(dir.c_str(), 0755);  // best effort; may already exist
  const std::uint64_t seq =
      impl_->dump_seq.fetch_add(1, std::memory_order_relaxed);
  const std::string path =
      dir + "/postmortem-" + info.reason + "-" + std::to_string(seq) + ".json";
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return std::string();
  out << json;
  out.close();
  if (!out) return std::string();
  return path;
}

namespace {

/// Chrome trace timestamps are microseconds; keep ns resolution as a
/// fraction.
std::string micros(std::int64_t ns) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%lld.%03lld",
                static_cast<long long>(ns / 1000),
                static_cast<long long>(ns % 1000));
  return buf;
}

/// The trace scope of a component (its interned metric namespace): the
/// prefix of its frame events' names. Engines have none.
std::string scope_of(std::string_view name) {
  for (const std::string scope : {"pipeline.", "temporal."}) {
    if (name.starts_with(scope) || name == scope.substr(0, scope.size() - 1)) {
      return scope;
    }
  }
  return "";
}

bool frame_terminal(JournalKind kind) {
  return kind == JournalKind::kFrameCompleted ||
         kind == JournalKind::kFrameFailed ||
         kind == JournalKind::kFrameCancelled;
}

/// Slices end at their record's timestamp and last `a` microseconds.
bool slice_kind(JournalKind kind) {
  return kind == JournalKind::kTileExecuted ||
         kind == JournalKind::kDesignCompiled;
}

}  // namespace

std::string Journal::chrome_trace(TraceTotals* totals) const {
  const std::vector<JournalRecord> events = snapshot();
  std::unordered_map<std::uint32_t, std::string> thread_names;
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    for (const auto& ring : impl_->rings) {
      for (const ThreadRing::Owner& o : ring->owners) {
        if (!o.name.empty()) thread_names[o.tid] = o.name;
      }
    }
  }
  const TraceTotals t{recorded(), events.size(), dropped()};
  if (totals != nullptr) *totals = t;

  // Frame lanes: the first frame-level admission of a frame id opens it,
  // the first terminal event of the same component closes it. A lane is
  // drawn only when both ends are still in the rings.
  std::unordered_map<std::uint64_t, std::size_t> openers;
  std::vector<bool> lane_end(events.size(), false);
  std::int64_t base = events.empty() ? 0 : events.front().ts_ns;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const JournalRecord& r = events[i];
    if (slice_kind(r.kind)) base = std::min(base, r.ts_ns - r.a * 1000);
    if (r.kind == JournalKind::kFrameAdmitted && r.stage == -1) {
      openers.try_emplace(r.frame, i);
    } else if (frame_terminal(r.kind)) {
      const auto it = openers.find(r.frame);
      if (it != openers.end() && !lane_end[it->second] &&
          events[it->second].name == r.name) {
        lane_end[it->second] = lane_end[i] = true;
      }
    }
  }

  std::string out = "{\"traceEvents\":[";
  const auto emit = [&](char ph, std::string_view name, std::string_view cat,
                        std::uint32_t tid, std::int64_t ts_ns,
                        const std::string& rest) {
    if (out.back() == '}') out += ',';
    out += "{\"ph\":\"";
    out += ph;
    out += "\",\"name\":\"";
    out += name;
    out += "\",\"cat\":\"";
    out += cat;
    out += "\",\"pid\":1,\"tid\":" + std::to_string(tid) +
           ",\"ts\":" + micros(ts_ns - base) + rest + '}';
  };
  const auto args = [](const JournalRecord& r, std::string_view extra) {
    std::string s = ",\"args\":{\"frame\":" + std::to_string(r.frame) +
                    ",\"stage\":" + std::to_string(r.stage) +
                    ",\"tile\":" + std::to_string(r.tile);
    s += extra;
    if (!r.name.empty()) {
      s += ",\"component\":";
      append_json_string(s, r.name);
    }
    return s + '}';
  };

  std::unordered_set<std::uint32_t> named;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const JournalRecord& r = events[i];
    if (named.insert(r.thread).second) {
      const auto it = thread_names.find(r.thread);
      std::string name = ",\"args\":{\"name\":";
      append_json_string(name, it != thread_names.end()
                                   ? it->second
                                   : "thread-" + std::to_string(r.thread));
      emit('M', "thread_name", "__metadata", r.thread, base, name + '}');
    }
    const std::string scope = scope_of(r.name);
    const std::string id = ",\"id\":\"" + std::to_string(r.frame) + '"';
    if (slice_kind(r.kind)) {
      const bool tile = r.kind == JournalKind::kTileExecuted;
      const std::int64_t dur = r.a * 1000;
      emit('X', tile ? "tile" : "design-compile", tile ? "engine" : "cache",
           r.thread, r.ts_ns - dur,
           ",\"dur\":" + micros(dur) +
               args(r, !tile     ? ""
                       : r.b != 0 ? ",\"ok\":true"
                                  : ",\"ok\":false"));
      // The frame's flow step sits inside the slice, before its end, so
      // Perfetto binds the arrow to this tile.
      if (tile) {
        emit('t', "frame", "frame", r.thread,
             r.ts_ns - std::min<std::int64_t>(dur, 1000) / 2, id);
      }
    } else if (r.kind == JournalKind::kFrameAdmitted && lane_end[i]) {
      emit('b', scope + "frame", "frame", r.thread, r.ts_ns, id + args(r, ""));
      emit('s', "frame", "frame", r.thread, r.ts_ns, id);
    } else {
      const bool frame_event =
          r.kind == JournalKind::kFrameAdmitted || frame_terminal(r.kind);
      emit('i',
           r.kind == JournalKind::kDepResolved
               ? std::string("pipeline.release")
               : (frame_event ? scope : "") + to_string(r.kind),
           scope.empty() ? "engine" : scope.substr(0, scope.size() - 1),
           r.thread, r.ts_ns,
           ",\"s\":\"t\"" + args(r, ",\"a\":" + std::to_string(r.a) +
                                     ",\"b\":" + std::to_string(r.b)));
      // The flow end binds to its enclosing slice ("bp":"e").
      if (lane_end[i]) {
        emit('f', "frame", "frame", r.thread, r.ts_ns, id + ",\"bp\":\"e\"");
        emit('e', scope + "frame", "frame", r.thread, r.ts_ns, id);
      }
    }
  }
  return out + "],\"otherData\":{\"recorded\":" + std::to_string(t.recorded) +
         ",\"rendered\":" + std::to_string(t.rendered) +
         ",\"dropped\":" + std::to_string(t.dropped) + "}}";
}

Journal& Journal::global() {
  static Journal* const journal = new Journal();  // immortal
  return *journal;
}

}  // namespace nup::obs
