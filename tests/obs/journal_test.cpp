// Flight recorder: lock-free per-thread event rings (seqlock slots) and
// their reuse across thread exits, the merged time-ordered snapshot, ring
// wrap, the run-time kill switch, the post-mortem bundle dumper, and the
// Chrome trace renderer. The concurrent tests run under the TSan job: any
// fence mistake in the seqlock shows up there.

#include "obs/journal.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"

namespace nup::obs {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::size_t count_of(const std::string& text, const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at + 1)) {
    ++n;
  }
  return n;
}

TEST(Journal, RecordsAndSnapshotsInOrder) {
  Journal journal;
  const std::uint32_t name = journal.intern("engine");
  journal.record(JournalKind::kFrameAdmitted, 7, -1, -1, 0, 16, name);
  journal.record(JournalKind::kTileExecuted, 7, 2, 3, 120, 1, name);
  journal.record(JournalKind::kFrameCompleted, 7, -1, -1, 900, 0, name);

  const std::vector<JournalRecord> log = journal.snapshot();
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log[0].kind, JournalKind::kFrameAdmitted);
  EXPECT_EQ(log[1].kind, JournalKind::kTileExecuted);
  EXPECT_EQ(log[2].kind, JournalKind::kFrameCompleted);
  EXPECT_LE(log[0].ts_ns, log[1].ts_ns);
  EXPECT_LE(log[1].ts_ns, log[2].ts_ns);
  EXPECT_EQ(log[1].frame, 7u);
  EXPECT_EQ(log[1].stage, 2);
  EXPECT_EQ(log[1].tile, 3);
  EXPECT_EQ(log[1].a, 120);
  EXPECT_EQ(log[1].b, 1);
  EXPECT_EQ(log[1].name, "engine");
  EXPECT_EQ(journal.recorded(), 3u);
  EXPECT_EQ(journal.dropped(), 0u);
}

TEST(Journal, InternIsStableAndSharedPerName) {
  Journal journal;
  const std::uint32_t a = journal.intern("pipeline");
  const std::uint32_t b = journal.intern("pipeline");
  const std::uint32_t c = journal.intern("edge.s0_s1");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_NE(a, 0u);  // 0 is the reserved "no name" id
}

TEST(Journal, RingWrapKeepsTheNewestEvents) {
  Journal journal(8);  // tiny ring: wraps after 8 events per thread
  for (int i = 0; i < 100; ++i) {
    journal.record(JournalKind::kTileExecuted, 1, -1, i, i);
  }
  const std::vector<JournalRecord> log = journal.snapshot();
  ASSERT_EQ(log.size(), 8u);
  // The surviving slots are the newest eight, in order.
  for (std::size_t k = 0; k < log.size(); ++k) {
    EXPECT_EQ(log[k].tile, static_cast<std::int64_t>(92 + k));
  }
  EXPECT_EQ(journal.recorded(), 100u);
}

TEST(Journal, SnapshotLastNTruncatesFromTheFront) {
  Journal journal;
  for (int i = 0; i < 20; ++i) {
    journal.record(JournalKind::kTileExecuted, 1, -1, i);
  }
  const std::vector<JournalRecord> tail = journal.snapshot(5);
  ASSERT_EQ(tail.size(), 5u);
  EXPECT_EQ(tail.front().tile, 15);
  EXPECT_EQ(tail.back().tile, 19);
}

TEST(Journal, DisabledRecordsNothing) {
  Journal journal;
  journal.set_enabled(false);
  EXPECT_FALSE(journal.enabled());
  journal.record(JournalKind::kTileExecuted, 1);
  EXPECT_EQ(journal.snapshot().size(), 0u);
  EXPECT_EQ(journal.recorded(), 0u);
  journal.set_enabled(true);
  journal.record(JournalKind::kTileExecuted, 1);
  EXPECT_EQ(journal.snapshot().size(), 1u);
}

TEST(Journal, ConcurrentRecordersAndSnapshotters) {
  // Writers hammer their thread rings while readers snapshot: the seqlock
  // must never tear a record (kind bytes stay valid, payloads consistent)
  // and TSan must stay quiet.
  Journal journal(256);
  constexpr int kWriters = 4;
  constexpr int kPerWriter = 20000;
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kWriters; ++t) {
    threads.emplace_back([&journal, t] {
      for (int i = 0; i < kPerWriter; ++i) {
        journal.record(JournalKind::kTileExecuted,
                       static_cast<std::uint64_t>(t + 1), t, i, i, i);
      }
    });
  }
  std::thread reader([&journal, &stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      for (const JournalRecord& r : journal.snapshot()) {
        ASSERT_EQ(r.kind, JournalKind::kTileExecuted);
        ASSERT_GE(r.frame, 1u);
        ASSERT_LE(r.frame, static_cast<std::uint64_t>(kWriters));
        // Payload consistency: a and b were written equal.
        ASSERT_EQ(r.a, r.b);
      }
    }
  });
  for (std::thread& t : threads) t.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();
  EXPECT_EQ(journal.recorded(),
            static_cast<std::uint64_t>(kWriters) * kPerWriter);
  EXPECT_GT(journal.capacity_bytes(), 0u);
}

TEST(Journal, DumpWithoutDirectoryReturnsEmpty) {
  Journal journal;
  PostmortemInfo info;
  info.reason = "frame_failed";
  EXPECT_EQ(journal.dump_postmortem(info), "");
}

TEST(Journal, PostmortemBundleNamesTheFailure) {
  Journal journal;
  const std::string dir = ::testing::TempDir() + "nup_journal_pm_basic";
  journal.set_postmortem_dir(dir);
  EXPECT_EQ(journal.postmortem_dir(), dir);

  const std::uint32_t name = journal.intern("engine");
  journal.record(JournalKind::kFrameAdmitted, 42, -1, -1, 0, 4, name);
  journal.record(JournalKind::kTileExecuted, 42, 1, 2, 55, 1, name);
  journal.record(JournalKind::kDeadlock, 42, 1, 3, 0, 0, name);

  Registry registry;
  registry.counter("engine.frames_failed").inc();

  PostmortemInfo info;
  info.reason = "deadlock";
  info.detail = "denoise: simulation wedged after 3000 idle cycles";
  info.frame = 42;
  info.stage = 1;
  info.tile = 3;
  info.design = "array A: fifos [1, 127, 1]";
  const std::string path = journal.dump_postmortem(info, &registry);
  ASSERT_FALSE(path.empty());
  EXPECT_NE(path.find("postmortem-deadlock-"), std::string::npos);

  const std::string bundle = read_file(path);
  EXPECT_NE(bundle.find("\"reason\": \"deadlock\""), std::string::npos)
      << bundle;
  EXPECT_NE(bundle.find("simulation wedged"), std::string::npos);
  EXPECT_NE(bundle.find("\"frame\": 42"), std::string::npos);
  EXPECT_NE(bundle.find("\"stage\": 1"), std::string::npos);
  EXPECT_NE(bundle.find("\"tile\": 3"), std::string::npos);
  EXPECT_NE(bundle.find("fifos [1, 127, 1]"), std::string::npos);
  // The event log survives into the bundle, deadlock event included.
  EXPECT_NE(bundle.find("\"deadlock\""), std::string::npos);
  EXPECT_NE(bundle.find("\"tile.executed\""), std::string::npos);
  EXPECT_NE(bundle.find("engine.frames_failed"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Journal, ViolationBundleCarriesTheFifoDepths) {
  Journal journal;
  const std::string dir = ::testing::TempDir() + "nup_journal_pm_fifo";
  journal.set_postmortem_dir(dir);
  journal.record(JournalKind::kDepthViolation, 9, -1, 0, 131, 127);

  PostmortemInfo info;
  info.reason = "depth_violation";
  info.detail = "A.0: high water 131 exceeds Eq. 2 depth 127";
  info.frame = 9;
  info.tile = 0;
  info.has_fifo = true;
  info.fifo.array = "A";
  info.fifo.fifo = 0;
  info.fifo.depth = 127;
  info.fifo.high_water = 131;
  info.fifo.word_level = false;
  const std::string path = journal.dump_postmortem(info);
  ASSERT_FALSE(path.empty());
  const std::string bundle = read_file(path);
  EXPECT_NE(bundle.find("\"array\": \"A\""), std::string::npos) << bundle;
  EXPECT_NE(bundle.find("\"depth\": 127"), std::string::npos);
  EXPECT_NE(bundle.find("\"high_water\": 131"), std::string::npos);
  EXPECT_NE(bundle.find("\"word_level\": false"), std::string::npos);
  EXPECT_NE(bundle.find("fifo.depth_violation"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Journal, SuccessiveDumpsGetDistinctPaths) {
  Journal journal;
  const std::string dir = ::testing::TempDir() + "nup_journal_pm_seq";
  journal.set_postmortem_dir(dir);
  PostmortemInfo info;
  info.reason = "frame_cancelled";
  const std::string first = journal.dump_postmortem(info);
  const std::string second = journal.dump_postmortem(info);
  ASSERT_FALSE(first.empty());
  ASSERT_FALSE(second.empty());
  EXPECT_NE(first, second);
  std::remove(first.c_str());
  std::remove(second.c_str());
}

TEST(Journal, KindNamesRoundTrip) {
  EXPECT_STREQ(to_string(JournalKind::kFrameAdmitted), "frame.admitted");
  EXPECT_STREQ(to_string(JournalKind::kTileSkipped), "tile.skipped");
  EXPECT_STREQ(to_string(JournalKind::kDepResolved), "dep.resolved");
  EXPECT_STREQ(to_string(JournalKind::kSlabLeased), "slab.leased");
  EXPECT_STREQ(to_string(JournalKind::kPassStarted), "pass.started");
  EXPECT_STREQ(to_string(JournalKind::kDepthViolation),
               "fifo.depth_violation");
  EXPECT_STREQ(to_string(JournalKind::kDeadlock), "deadlock");
  EXPECT_STREQ(to_string(JournalKind::kDesignCompiled), "design.compiled");
}

TEST(FrameId, AllocatorIsMonotonicAndRaceFree) {
  const std::uint64_t first = next_frame_id();
  constexpr int kThreads = 8;
  constexpr int kPerThread = 1000;
  std::vector<std::thread> threads;
  std::vector<std::vector<std::uint64_t>> ids(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&ids, t] {
      ids[t].reserve(kPerThread);
      for (int i = 0; i < kPerThread; ++i) ids[t].push_back(next_frame_id());
    });
  }
  for (std::thread& t : threads) t.join();
  std::vector<std::uint64_t> all;
  for (const auto& v : ids) all.insert(all.end(), v.begin(), v.end());
  std::sort(all.begin(), all.end());
  EXPECT_EQ(std::adjacent_find(all.begin(), all.end()), all.end());
  EXPECT_GT(all.front(), first);
}

TEST(Journal, GlobalIsOneInstance) {
  EXPECT_EQ(&Journal::global(), &Journal::global());
}

TEST(Journal, ExitedThreadsHandTheirRingsBack) {
  // One thread alive at a time, many more threads over the run than the
  // ring budget: each exit returns its ring, so nothing is dropped, slot
  // storage stays at one ring, and the newest thread's event is kept.
  Journal journal;
  constexpr int kThreads = 600;
  static_assert(kThreads > static_cast<int>(Journal::kMaxThreadRings));
  std::size_t one_ring = 0;
  for (int i = 0; i < kThreads; ++i) {
    std::thread([&journal, i] {
      journal.record(JournalKind::kTileExecuted, 1, -1, i);
    }).join();
    if (i == 0) one_ring = journal.capacity_bytes();
  }
  EXPECT_EQ(journal.dropped(), 0u);
  EXPECT_GT(one_ring, 0u);
  EXPECT_EQ(journal.capacity_bytes(), one_ring);
  EXPECT_EQ(journal.recorded(), static_cast<std::uint64_t>(kThreads));
  const std::vector<JournalRecord> log = journal.snapshot();
  ASSERT_EQ(log.size(), static_cast<std::size_t>(kThreads));
  EXPECT_EQ(log.back().tile, kThreads - 1);
  // A reused ring gives each thread a fresh id.
  EXPECT_NE(log.front().thread, log.back().thread);
}

TEST(Journal, ReusedRingKeepsEachThreadsName) {
  Journal journal;
  for (const char* name : {"first", "second"}) {
    std::thread([&journal, name] {
      journal.set_thread_name(name);
      journal.record(JournalKind::kTileExecuted, 1, -1, 0, 5, 1);
    }).join();
  }
  const std::vector<JournalRecord> log = journal.snapshot();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_NE(log[0].thread, log[1].thread);
  const std::string json = journal.chrome_trace();
  EXPECT_NE(json.find("\"args\":{\"name\":\"first\"}"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"args\":{\"name\":\"second\"}"), std::string::npos);
}

// ---- Chrome trace rendering --------------------------------------------

// The two disabled-journal checks keep the names of the span-tracer tests
// whose guarantees they carry over to the renderer.

TEST(Tracer, DisabledRecordsNothing) {
  // Slices (tile, design compile) and instants recorded while the journal
  // is off leave nothing to render; the trace is still well-formed.
  Journal journal;
  journal.set_enabled(false);
  const std::uint32_t name = journal.intern("engine");
  journal.record(JournalKind::kTileExecuted, 3, -1, 0, 10, 1, name);
  journal.record(JournalKind::kDesignCompiled, 3, -1, -1, 40, 0, name);
  journal.record(JournalKind::kSlabLeased, 3, -1, -1, 64, 1, name);
  EXPECT_EQ(journal.recorded(), 0u);
  EXPECT_TRUE(journal.snapshot().empty());
  TraceTotals totals;
  const std::string json = journal.chrome_trace(&totals);
  EXPECT_EQ(json.rfind("{\"traceEvents\":[],", 0), 0u) << json;
  EXPECT_NE(json.find("\"otherData\":{\"recorded\":0,\"rendered\":0,"
                      "\"dropped\":0}"),
            std::string::npos)
      << json;
  EXPECT_EQ(totals.rendered, 0u);
}

TEST(Tracer, FlowAndAsyncDisabledAreInert) {
  // A whole frame recorded while the journal is off opens no async lane
  // and draws no flow through its tiles.
  Journal journal;
  journal.set_enabled(false);
  const std::uint32_t name = journal.intern("engine");
  journal.record(JournalKind::kFrameAdmitted, 3, -1, -1, 0, 2, name);
  journal.record(JournalKind::kTileExecuted, 3, -1, 0, 10, 1, name);
  journal.record(JournalKind::kTileExecuted, 3, -1, 1, 10, 1, name);
  journal.record(JournalKind::kFrameCompleted, 3, -1, -1, 20, 0, name);
  TraceTotals totals;
  const std::string json = journal.chrome_trace(&totals);
  for (const char* ph : {"b", "e", "s", "t", "f"}) {
    EXPECT_EQ(count_of(json, std::string("\"ph\":\"") + ph + "\""), 0u)
        << ph << " in " << json;
  }
  EXPECT_EQ(json.rfind("{\"traceEvents\":[],", 0), 0u) << json;
  EXPECT_EQ(totals.recorded, 0u);
  EXPECT_EQ(totals.rendered, 0u);
}

TEST(JournalTrace, SpansFromManyThreadsAllRender) {
  Journal journal;
  constexpr int kThreads = 4;
  constexpr int kSpansEach = 50;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&journal, t] {
      journal.set_thread_name("worker-" + std::to_string(t));
      for (int i = 0; i < kSpansEach; ++i) {
        journal.record(JournalKind::kTileExecuted, 1, 0, i, 2, 1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const std::string json = journal.chrome_trace();
  EXPECT_EQ(count_of(json, "\"ph\":\"X\",\"name\":\"tile\""),
            static_cast<std::size_t>(kThreads * kSpansEach))
      << json;
  EXPECT_EQ(count_of(json, "\"name\":\"thread_name\""),
            static_cast<std::size_t>(kThreads));
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_NE(json.find("\"worker-" + std::to_string(t) + "\""),
              std::string::npos);
  }
  EXPECT_NE(json.find("\"args\":{\"frame\":1,\"stage\":0,\"tile\":49,"
                      "\"ok\":true}"),
            std::string::npos);
}

TEST(JournalTrace, TimestampsAreMicroseconds) {
  // A slice ends at its record's timestamp and lasts `a` us; the earliest
  // rendered moment (this slice's start) is time zero.
  Journal journal;
  journal.record(JournalKind::kTileExecuted, 1, -1, 0, 3, 1);
  const std::string json = journal.chrome_trace();
  EXPECT_NE(json.find("\"ts\":0.000,\"dur\":3.000"), std::string::npos)
      << json;
  // The flow step sits half a microsecond before the slice's end.
  EXPECT_NE(json.find("\"ph\":\"t\",\"name\":\"frame\",\"cat\":\"frame\","
                      "\"pid\":1,\"tid\":0,\"ts\":2.500"),
            std::string::npos)
      << json;
}

TEST(JournalTrace, FrameLaneCarriesTheFrameId) {
  Journal journal;
  const std::uint32_t name = journal.intern("engine.e");
  journal.record(JournalKind::kFrameAdmitted, 42, -1, -1, 0, 1, name);
  journal.record(JournalKind::kTileExecuted, 42, -1, 0, 0, 1, name);
  journal.record(JournalKind::kFrameCompleted, 42, -1, -1, 5, 0, name);
  const std::string json = journal.chrome_trace();
  EXPECT_EQ(count_of(json, "\"ph\":\"b\",\"name\":\"frame\""), 1u) << json;
  EXPECT_EQ(count_of(json, "\"ph\":\"e\",\"name\":\"frame\""), 1u);
  EXPECT_EQ(count_of(json, "\"id\":\"42\""), 5u);  // b, s, t, f, e
  EXPECT_EQ(count_of(json, "\"name\":\"frame.completed\""), 1u);
  EXPECT_NE(json.find("\"component\":\"engine.e\""), std::string::npos);
}

TEST(JournalTrace, OnlyTheFlowEndCarriesTheBindingPoint) {
  Journal journal;
  journal.record(JournalKind::kFrameAdmitted, 9, -1, -1);
  journal.record(JournalKind::kTileExecuted, 9, -1, 0, 1, 1);
  journal.record(JournalKind::kTileExecuted, 9, -1, 1, 1, 1);
  journal.record(JournalKind::kFrameCompleted, 9, -1, -1);
  const std::string json = journal.chrome_trace();
  EXPECT_EQ(count_of(json, "\"ph\":\"s\""), 1u) << json;
  EXPECT_EQ(count_of(json, "\"ph\":\"t\""), 2u);
  EXPECT_EQ(count_of(json, "\"ph\":\"f\""), 1u);
  EXPECT_EQ(count_of(json, "\"bp\":\"e\""), 1u);
  const std::size_t f = json.find("\"ph\":\"f\"");
  const std::size_t bp = json.find("\"bp\":\"e\"");
  ASSERT_NE(f, std::string::npos);
  EXPECT_LT(f, bp);
  EXPECT_LT(bp, json.find('}', f));
}

TEST(JournalTrace, LaneBelongsToTheOutermostComponent) {
  // A temporal frame: the runner admits first, its pass's pipeline and the
  // pipeline's engine stage follow with the same frame id. Only the runner
  // opens and closes the lane; every terminal event is an instant named
  // for its component's scope.
  Journal journal;
  const std::uint32_t runner = journal.intern("temporal.heat");
  const std::uint32_t pipeline = journal.intern("pipeline.heat");
  const std::uint32_t engine = journal.intern("engine.heat");
  journal.record(JournalKind::kFrameAdmitted, 5, -1, -1, 0, 2, runner);
  journal.record(JournalKind::kPassStarted, 5, -1, -1, 0, 4, runner);
  journal.record(JournalKind::kFrameAdmitted, 5, -1, -1, 0, 8, pipeline);
  journal.record(JournalKind::kFrameAdmitted, 5, 0, -1, 0, 8, engine);
  journal.record(JournalKind::kTileExecuted, 5, 0, 0, 1, 1, engine);
  journal.record(JournalKind::kDepResolved, 5, 1, 0, 7, 0, pipeline);
  journal.record(JournalKind::kFrameCompleted, 5, 0, -1, 9, 0, engine);
  journal.record(JournalKind::kFrameCompleted, 5, -1, -1, 9, 0, pipeline);
  journal.record(JournalKind::kFrameCompleted, 5, -1, -1, 8, 1, runner);
  const std::string json = journal.chrome_trace();
  EXPECT_EQ(count_of(json, "\"ph\":\"b\",\"name\":\"temporal.frame\""), 1u)
      << json;
  EXPECT_EQ(count_of(json, "\"ph\":\"e\",\"name\":\"temporal.frame\""), 1u);
  EXPECT_EQ(count_of(json, "\"ph\":\"b\""), 1u);
  EXPECT_EQ(count_of(json, "\"ph\":\"f\""), 1u);
  EXPECT_EQ(count_of(json, "\"name\":\"frame.completed\""), 1u);
  EXPECT_EQ(count_of(json, "\"name\":\"pipeline.frame.completed\""), 1u);
  EXPECT_EQ(count_of(json, "\"name\":\"temporal.frame.completed\""), 1u);
  EXPECT_EQ(count_of(json, "\"name\":\"pipeline.frame.admitted\""), 1u);
  EXPECT_EQ(count_of(json, "\"name\":\"pass.started\""), 1u);
  EXPECT_NE(json.find("\"name\":\"pipeline.release\",\"cat\":\"pipeline\""),
            std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"frame\":5,\"stage\":1,\"tile\":0,\"a\":7,"
                      "\"b\":0,\"component\":\"pipeline.heat\"}"),
            std::string::npos);
}

TEST(JournalTrace, DesignCompileRendersAsASlice) {
  Journal journal;
  journal.record(JournalKind::kDesignCompiled, 0, -1, -1, 250, 0,
                 journal.intern("engine"));
  const std::string json = journal.chrome_trace();
  EXPECT_NE(json.find("\"ph\":\"X\",\"name\":\"design-compile\","
                      "\"cat\":\"cache\""),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"dur\":250.000"), std::string::npos);
}

TEST(JournalTrace, WrappedRingSaysTheTraceIsTruncated) {
  // The lane's opener wraps out of a tiny ring: its close is not drawn
  // either, and otherData tells the renderer's reader what is missing.
  Journal journal(8);
  journal.record(JournalKind::kFrameAdmitted, 4, -1, -1);
  for (int i = 0; i < 20; ++i) {
    journal.record(JournalKind::kTileExecuted, 4, -1, i, 1, 1);
  }
  journal.record(JournalKind::kFrameCompleted, 4, -1, -1);
  TraceTotals totals;
  const std::string json = journal.chrome_trace(&totals);
  EXPECT_EQ(totals.recorded, 22u);
  EXPECT_EQ(totals.rendered, 8u);
  EXPECT_EQ(totals.dropped, 0u);
  EXPECT_NE(json.find("\"otherData\":{\"recorded\":22,\"rendered\":8,"
                      "\"dropped\":0}"),
            std::string::npos)
      << json;
  EXPECT_EQ(count_of(json, "\"ph\":\"b\""), 0u);
  EXPECT_EQ(count_of(json, "\"ph\":\"e\""), 0u);
  EXPECT_EQ(count_of(json, "\"ph\":\"f\""), 0u);
  EXPECT_EQ(count_of(json, "\"name\":\"frame.completed\""), 1u);
}

TEST(JournalTrace, RenderingRacesRecording) {
  // Workers record frames and tiles while another thread renders: the
  // TSan job fails this test on any race between the two.
  Journal journal(256);
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&journal, t] {
      journal.set_thread_name("worker-" + std::to_string(t));
      for (int i = 0; i < 2000; ++i) {
        const auto frame = static_cast<std::uint64_t>(t * 2000 + i + 1);
        journal.record(JournalKind::kFrameAdmitted, frame, -1, -1);
        journal.record(JournalKind::kTileExecuted, frame, -1, 0, 1, 1);
        journal.record(JournalKind::kFrameCompleted, frame, -1, -1);
      }
    });
  }
  std::thread renderer([&journal, &stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      const std::string json = journal.chrome_trace();
      ASSERT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
      ASSERT_EQ(count_of(json, "\"ph\":\"b\""),
                count_of(json, "\"ph\":\"e\""));
    }
  });
  for (std::thread& t : threads) t.join();
  stop.store(true, std::memory_order_relaxed);
  renderer.join();
  EXPECT_EQ(journal.recorded(), 4u * 2000u * 3u);
}

}  // namespace
}  // namespace nup::obs
