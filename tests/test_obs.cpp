// Unit tests for the observability primitives: the per-entity ring tracer
// (ordering, eviction, exports) and the metrics registry (counters,
// log2-bucket histograms, JSON dump shape).
#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "obs/metrics.hpp"
#include "obs/record.hpp"
#include "obs/trace.hpp"

#ifndef CASPER_SCRIPTS_DIR
#error "CASPER_SCRIPTS_DIR must point at the scripts directory"
#endif

using namespace casper;

// ----------------------------------------------------------------- tracer --

TEST(Tracer, OrderedMergesEntitiesBySeq) {
  obs::Tracer tr;
  tr.instant(0, obs::Ev::OpIssued, sim::ns(10), 1);
  tr.instant(2, obs::Ev::OpRedirected, sim::ns(20), 2);
  tr.instant(0, obs::Ev::OpFlushed, sim::ns(30), 3);
  const auto evs = tr.ordered();
  ASSERT_EQ(evs.size(), 3u);
  EXPECT_EQ(evs[0].seq, 0u);
  EXPECT_EQ(evs[1].seq, 1u);
  EXPECT_EQ(evs[2].seq, 2u);
  EXPECT_EQ(evs[0].entity, 0);
  EXPECT_EQ(evs[1].entity, 2);
  EXPECT_EQ(evs[2].ev, obs::Ev::OpFlushed);
  EXPECT_EQ(tr.recorded(), 3u);
  EXPECT_EQ(tr.dropped(), 0u);
}

TEST(Tracer, RingOverwritesOldestAndCountsDropped) {
  obs::Tracer tr(4);  // tiny ring per entity
  for (int i = 0; i < 10; ++i) {
    tr.instant(0, obs::Ev::OpIssued, sim::ns(i), static_cast<std::uint64_t>(i));
  }
  EXPECT_EQ(tr.recorded(), 10u);
  EXPECT_EQ(tr.dropped(), 6u);
  const auto evs = tr.ordered();
  ASSERT_EQ(evs.size(), 4u);  // only the last 4 survive
  EXPECT_EQ(evs.front().a, 6u);
  EXPECT_EQ(evs.back().a, 9u);
}

TEST(Tracer, RingCapacityRoundsUpToPowerOfTwo) {
  obs::Tracer tr(3);  // rounds to 4
  for (int i = 0; i < 4; ++i) tr.instant(0, obs::Ev::OpIssued, sim::ns(i));
  EXPECT_EQ(tr.dropped(), 0u);
  tr.instant(0, obs::Ev::OpIssued, sim::ns(4));
  EXPECT_EQ(tr.dropped(), 1u);
}

TEST(Tracer, PerEntityRingsIsolateEviction) {
  obs::Tracer tr(4);
  for (int i = 0; i < 100; ++i) tr.instant(1, obs::Ev::GhostService, sim::ns(i));
  tr.instant(0, obs::Ev::OpIssued, sim::ns(0), 77);
  // The chatty entity evicted only its own history.
  bool found = false;
  for (const auto& e : tr.ordered()) {
    if (e.entity == 0) {
      found = true;
      EXPECT_EQ(e.a, 77u);
    }
  }
  EXPECT_TRUE(found);
}

TEST(Tracer, NegativeEntityIgnored) {
  obs::Tracer tr;
  tr.instant(-1, obs::Ev::OpIssued, sim::ns(0));
  EXPECT_EQ(tr.recorded(), 0u);
}

TEST(Tracer, SpanIsDetectedAndDurLandsInA) {
  EXPECT_TRUE(obs::is_span(obs::Ev::Compute));
  EXPECT_TRUE(obs::is_span(obs::Ev::GhostService));
  EXPECT_TRUE(obs::is_span(obs::Ev::EpochTranslate));
  EXPECT_FALSE(obs::is_span(obs::Ev::OpIssued));
  obs::Tracer tr;
  tr.span(0, obs::Ev::Compute, sim::us(1), sim::ns(250));
  const auto evs = tr.ordered();
  ASSERT_EQ(evs.size(), 1u);
  EXPECT_EQ(evs[0].t, sim::us(1));
  EXPECT_EQ(evs[0].a, sim::ns(250));
}

TEST(Tracer, ExportTextIsStableAndNamed) {
  obs::Tracer tr;
  tr.set_entity_name(0, "user 0");
  tr.set_entity_name(1, "ghost 1");
  tr.instant(0, obs::Ev::OpIssued, sim::ns(5), 1, 2, 3);
  tr.span(1, obs::Ev::GhostService, sim::ns(7), sim::ns(11), 4, 5);
  std::ostringstream os;
  tr.export_text(os);
  EXPECT_EQ(os.str(),
            "ENTITY 0 user 0\n"
            "ENTITY 1 ghost 1\n"
            "0 5 0 op.issued 1 2 3\n"
            "1 7 1 ghost.service 11 4 5\n");
}

TEST(Tracer, ExportChromeShapes) {
  obs::Tracer tr;
  tr.set_entity_name(0, "user 0");
  tr.set_entity_name(9, "never used");  // no events -> no metadata row
  tr.instant(0, obs::Ev::OpRedirected, sim::ns(1500), 3, 1, 64);
  tr.span(0, obs::Ev::Compute, sim::us(2), sim::us(1));
  std::ostringstream os;
  tr.export_chrome(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(s.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(s.find("\"user 0\""), std::string::npos);
  EXPECT_EQ(s.find("never used"), std::string::npos);
  // Instant: phase "i", ts 1500 ns = 1.500 us.
  EXPECT_NE(s.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(s.find("\"ts\":1.500"), std::string::npos);
  // Span: phase "X" with dur.
  EXPECT_NE(s.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(s.find("\"dur\":1.000"), std::string::npos);
  EXPECT_NE(s.find("\"op.redirected\""), std::string::npos);
}

TEST(Tracer, TailTextReturnsLastLines) {
  obs::Tracer tr;
  for (int i = 0; i < 10; ++i) {
    tr.instant(0, obs::Ev::OpIssued, sim::ns(i), static_cast<std::uint64_t>(i));
  }
  const auto tail = tr.tail_text(3);
  ASSERT_EQ(tail.size(), 3u);
  EXPECT_NE(tail[0].find(" 7 "), std::string::npos);
  EXPECT_NE(tail[2].find(" 9 "), std::string::npos);
}

TEST(Tracer, EventNamesCoverTaxonomy) {
  EXPECT_STREQ(obs::to_string(obs::Ev::OpIssued), "op.issued");
  EXPECT_STREQ(obs::to_string(obs::Ev::OpHwPath), "op.hw");
  EXPECT_STREQ(obs::to_string(obs::Ev::OpRedirected), "op.redirected");
  EXPECT_STREQ(obs::to_string(obs::Ev::OpSegmentSplit), "op.split");
  EXPECT_STREQ(obs::to_string(obs::Ev::LbDecision), "lb.decision");
  EXPECT_STREQ(obs::to_string(obs::Ev::OpCommitted), "op.committed");
  EXPECT_STREQ(obs::to_string(obs::Ev::OpFlushed), "op.flushed");
  EXPECT_STREQ(obs::to_string(obs::Ev::EpochBegin), "epoch.begin");
  EXPECT_STREQ(obs::to_string(obs::Ev::EpochTranslate), "epoch.translate");
  EXPECT_STREQ(obs::to_string(obs::Ev::EpochEnd), "epoch.end");
  EXPECT_STREQ(obs::to_string(obs::Ev::FiberSwitch), "fiber.switch");
  EXPECT_STREQ(obs::to_string(obs::Ev::GhostService), "ghost.service");
  EXPECT_STREQ(obs::to_string(obs::Ev::Compute), "compute");
}

// The chrome-trace validator rejects any event name outside its
// KNOWN_EVENTS set, so that set must be exactly the tracer's vocabulary:
// obs::to_string over every Ev value.
TEST(Tracer, ValidatorKnowsExactlyTheEventNames) {
  std::set<std::string> names;
  for (int v = 0; v <= 255; ++v) {
    const std::string n = obs::to_string(static_cast<obs::Ev>(v));
    if (n != "unknown") names.insert(n);
  }
  std::ifstream py(CASPER_SCRIPTS_DIR "/validate_chrome_trace.py");
  ASSERT_TRUE(py) << "cannot open validate_chrome_trace.py";
  std::set<std::string> known;
  bool in_set = false;
  for (std::string line; std::getline(py, line);) {
    if (line.rfind("KNOWN_EVENTS = {", 0) == 0) {
      in_set = true;
    } else if (in_set && line.rfind('}', 0) == 0) {
      break;
    } else if (in_set) {
      const auto a = line.find('"');
      const auto b = line.find('"', a + 1);
      ASSERT_NE(b, std::string::npos) << "unparsed KNOWN_EVENTS line: " << line;
      known.insert(line.substr(a + 1, b - a - 1));
    }
  }
  EXPECT_EQ(known, names);
}

// ---------------------------------------------------------------- metrics --

TEST(Histogram, BucketsByLog2) {
  obs::Histogram h;
  h.add(0);
  h.add(1);
  h.add(2);
  h.add(3);
  h.add(1024);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.sum(), 1030u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 1024u);
  EXPECT_DOUBLE_EQ(h.mean(), 206.0);
  EXPECT_EQ(h.bucket(0), 2u);   // 0 and 1
  EXPECT_EQ(h.bucket(1), 2u);   // 2 and 3
  EXPECT_EQ(h.bucket(10), 1u);  // 1024
  EXPECT_EQ(h.bucket(63), 0u);
  EXPECT_EQ(h.bucket(64), 0u);  // out of range is safe
}

TEST(Histogram, EmptyIsZero) {
  obs::Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

TEST(Metrics, CountersGetOrCreate) {
  obs::Metrics m;
  ++m.counter("a");
  m.counter("a") += 2;
  EXPECT_EQ(m.counter_value("a"), 3u);
  EXPECT_EQ(m.counter_value("missing"), 0u);
}

TEST(Metrics, WriteJsonShape) {
  obs::Metrics m;
  m.counter("x") = 7;
  m.histogram("h").add(8);
  std::ostringstream os;
  m.write_json(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("\"counters\""), std::string::npos);
  EXPECT_NE(s.find("\"x\": 7"), std::string::npos);
  EXPECT_NE(s.find("\"histograms\""), std::string::npos);
  EXPECT_NE(s.find("\"count\": 1"), std::string::npos);
  EXPECT_NE(s.find("[3, 1]"), std::string::npos);  // bucket log2(8)=3
}

TEST(Metrics, EmptyWriteJson) {
  obs::Metrics m;
  std::ostringstream os;
  m.write_json(os);
  EXPECT_EQ(os.str(), "{\n  \"counters\": {},\n  \"histograms\": {}\n}");
}

TEST(Histogram, MergeSumsBucketsAndWidensRange) {
  obs::Histogram a;
  obs::Histogram b;
  a.add(2);
  a.add(1024);
  b.add(0);
  b.add(7);
  a.merge(b);
  EXPECT_EQ(a.count(), 4u);
  EXPECT_EQ(a.sum(), 1033u);
  EXPECT_EQ(a.min(), 0u);
  EXPECT_EQ(a.max(), 1024u);
  EXPECT_EQ(a.bucket(0), 1u);
  EXPECT_EQ(a.bucket(1), 1u);
  EXPECT_EQ(a.bucket(2), 1u);
  EXPECT_EQ(a.bucket(10), 1u);
  // Merging an empty histogram must not corrupt min().
  obs::Histogram empty;
  a.merge(empty);
  EXPECT_EQ(a.min(), 0u);
  EXPECT_EQ(a.count(), 4u);
}

TEST(Metrics, MergeFromSumsCountersAndHistograms) {
  obs::Metrics a;
  obs::Metrics b;
  a.counter("shared") = 3;
  a.counter("only_a") = 1;
  b.counter("shared") = 4;
  b.counter("only_b") = 9;
  a.histogram("h").add(16);
  b.histogram("h").add(2);
  a.merge_from(b);
  EXPECT_EQ(a.counter_value("shared"), 7u);
  EXPECT_EQ(a.counter_value("only_a"), 1u);
  EXPECT_EQ(a.counter_value("only_b"), 9u);
  EXPECT_EQ(a.histogram("h").count(), 2u);
  EXPECT_EQ(a.histogram("h").sum(), 18u);
}

TEST(Tracer, MergedOrdersByTimeThenShardAndRenumbers) {
  obs::Tracer s0;
  obs::Tracer s1;
  s0.set_entity_name(0, "user 0");
  s1.set_entity_name(8, "user 8");
  // Shard 1 records first in host time — must not matter.
  s1.instant(8, obs::Ev::OpIssued, sim::ns(10), 81);
  s1.instant(8, obs::Ev::OpFlushed, sim::ns(30), 83);
  s0.instant(0, obs::Ev::OpIssued, sim::ns(10), 1);
  s0.instant(0, obs::Ev::OpCommitted, sim::ns(20), 2);
  const obs::Tracer m = obs::Tracer::merged({&s0, &s1}, 16);
  const auto evs = m.ordered();
  ASSERT_EQ(evs.size(), 4u);
  // t=10 tie: shard 0 before shard 1; then t=20, t=30. Fresh dense seq.
  EXPECT_EQ(evs[0].a, 1u);
  EXPECT_EQ(evs[1].a, 81u);
  EXPECT_EQ(evs[2].a, 2u);
  EXPECT_EQ(evs[3].a, 83u);
  for (std::size_t i = 0; i < evs.size(); ++i) EXPECT_EQ(evs[i].seq, i);
  EXPECT_EQ(m.recorded(), 4u);
  ASSERT_NE(m.entity_name(0), nullptr);
  ASSERT_NE(m.entity_name(8), nullptr);
  EXPECT_EQ(*m.entity_name(8), "user 8");
}

TEST(Recorder, MergeShardsFoldsReplicasFromShardedRun) {
  // Drive a real sharded engine with the recorder attached as the schedule
  // observer: worker threads record into per-shard replicas; after the merge
  // the fold must be deterministic run to run and count every switch.
  auto run_once = [](int shards) {
    obs::Recorder rec;
    rec.set_shards(shards);
    sim::Engine::Options o;
    o.nranks = 16;
    o.shards = shards;
    o.lookahead = sim::us(1);
    sim::Engine e(o, [](sim::Context& ctx) {
      for (int i = 0; i < 8 + ctx.rank() % 3; ++i) ctx.advance(sim::ns(100));
    });
    e.set_sched_observer(&rec);
    e.run();
    rec.merge_shards();
    std::ostringstream os;
    rec.trace().export_text(os);
    return std::make_pair(os.str(), rec.trace().recorded());
  };
  const auto single = run_once(1);
  const auto a = run_once(4);
  const auto b = run_once(4);
  EXPECT_EQ(a.first, b.first) << "merged sharded trace must be deterministic";
  // Same workload, same total switches regardless of sharding.
  EXPECT_EQ(a.second, single.second);
  EXPECT_NE(a.second, 0u);
}

// ----------------------------------------------------------------- gating --

TEST(Recorder, OnGate) {
  EXPECT_FALSE(obs::on(nullptr));
  obs::Recorder rec;
  EXPECT_TRUE(obs::on(&rec));
}

TEST(Recorder, SchedObserverTracesOnlyRanks) {
  obs::Recorder rec;
  rec.on_schedule(sim::ns(1), -1);  // engine-internal event: not a switch
  rec.on_schedule(sim::ns(2), 3);
  EXPECT_EQ(rec.trace().recorded(), 1u);
  const auto evs = rec.trace().ordered();
  ASSERT_EQ(evs.size(), 1u);
  EXPECT_EQ(evs[0].entity, 3);
  EXPECT_EQ(evs[0].ev, obs::Ev::FiberSwitch);
}
