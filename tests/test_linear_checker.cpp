// Linearizability checker (src/check/linear.*) unit tests: hand-built legal
// and illegal histories exercise the register semantics and the Wing–Gong
// search directly, a deliberately broken KV store variant (skipped
// unlock-ordering flush) proves end-to-end detection, and the KV proof
// (check::prove<KvWorkload>) proves the whole catch → minimize → write →
// replay pipeline holds.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "check/kvfuzz.hpp"
#include "check/linear.hpp"

namespace {

using namespace casper;
using check::LinearChecker;
using kv::KvEvent;

KvEvent ev(std::uint64_t key, KvEvent::Kind kind, std::int64_t arg1,
           std::int64_t arg2, std::int64_t result, bool ok, sim::Time inv,
           sim::Time resp, int client = 0) {
  KvEvent e;
  e.key = key;
  e.kind = kind;
  e.arg1 = arg1;
  e.arg2 = arg2;
  e.result = result;
  e.ok = ok;
  e.client = client;
  e.inv = inv;
  e.resp = resp;
  return e;
}

KvEvent get(std::uint64_t k, std::int64_t res, sim::Time i, sim::Time r,
            int c = 0) {
  return ev(k, KvEvent::Kind::Get, 0, 0, res, true, i, r, c);
}
KvEvent put(std::uint64_t k, std::int64_t v, sim::Time i, sim::Time r,
            int c = 0, bool ok = true) {
  return ev(k, KvEvent::Kind::Put, v, 0, 0, ok, i, r, c);
}
KvEvent cas(std::uint64_t k, std::int64_t exp, std::int64_t des,
            std::int64_t old, bool ok, sim::Time i, sim::Time r, int c = 0) {
  return ev(k, KvEvent::Kind::CasUpd, exp, des, old, ok, i, r, c);
}

// LinearChecker is immovable (mutex + atomics), so tests fill one in place.
template <typename... Es>
void record_all(LinearChecker& ck, const Es&... es) {
  (ck.record(es), ...);
}

template <typename... Es>
bool clean_history(const Es&... es) {
  LinearChecker ck;
  record_all(ck, es...);
  return ck.clean();
}

template <typename... Es>
std::size_t violation_count(const Es&... es) {
  LinearChecker ck;
  record_all(ck, es...);
  return ck.check().size();
}

// --- legal histories -------------------------------------------------------

TEST(LinearChecker, EmptyAndSequentialHistoriesAreClean) {
  LinearChecker empty;
  EXPECT_TRUE(empty.clean());
  EXPECT_EQ(empty.ops_recorded(), 0u);

  LinearChecker ck;
  record_all(ck,
             get(1, 0, 0, 5),    // key absent
             put(1, 7, 10, 15),  // install 7
             get(1, 7, 20, 25),  // read it back
             cas(1, 7, 9, 7, true, 30, 35), get(1, 9, 40, 45),
             // stale expected: fails, reports 9
             cas(1, 7, 11, 9, false, 50, 55), get(1, 9, 60, 65));
  EXPECT_TRUE(ck.clean()) << ck.check().front().diag;
}

TEST(LinearChecker, OverlappingOpsMayCommute) {
  // GET [0,20] overlaps PUT(1) [5,15]: reading 0 is legal (GET linearizes
  // first) and so is reading 1 (PUT first) — both orders must be accepted.
  EXPECT_TRUE(clean_history(get(1, 0, 0, 20, 0), put(1, 1, 5, 15, 1)));
  EXPECT_TRUE(clean_history(get(1, 1, 0, 20, 0), put(1, 1, 5, 15, 1)));
  // Two overlapping CAS ops both expecting 7 — only the winner succeeds;
  // the loser must observe the winner's value.
  EXPECT_TRUE(clean_history(put(1, 7, 0, 5),
                            cas(1, 7, 8, 7, true, 10, 30, 0),
                            cas(1, 7, 9, 8, false, 12, 28, 1)));
}

TEST(LinearChecker, PerKeyIsolation) {
  // An illegal value on key 2 must not implicate key 1's clean history.
  LinearChecker ck;
  record_all(ck, put(1, 5, 0, 5), get(1, 5, 10, 15), put(2, 5, 0, 5),
             get(2, 6, 10, 15));
  const auto& vs = ck.check();
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_EQ(vs[0].key, 2u);
}

// --- illegal histories -----------------------------------------------------

TEST(LinearChecker, StaleReadIsAViolation) {
  // PUT(1) then PUT(2) strictly before a GET that still returns 1.
  LinearChecker ck;
  record_all(ck, put(1, 1, 0, 10), put(1, 2, 20, 30), get(1, 1, 40, 50));
  const auto& vs = ck.check();
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_EQ(vs[0].key, 1u);
  EXPECT_NE(vs[0].diag.find("no legal linearization"), std::string::npos);
}

TEST(LinearChecker, LostUpdateIsAViolation) {
  // A successful CAS 1->2 whose effect later vanishes.
  EXPECT_EQ(violation_count(put(1, 1, 0, 10), cas(1, 1, 2, 1, true, 20, 30),
                            get(1, 1, 40, 50)),
            1u);
}

TEST(LinearChecker, DoubleCasSuccessIsAViolation) {
  // Two CAS ops expecting the same old value cannot both succeed.
  EXPECT_EQ(violation_count(put(1, 1, 0, 10),
                            cas(1, 1, 2, 1, true, 20, 30, 0),
                            cas(1, 1, 3, 1, true, 40, 50, 1)),
            1u);
}

TEST(LinearChecker, OverflowPutWhileKeyPresentIsAViolation) {
  // PUT !ok claims the bucket had no slot for the key — impossible while
  // the key is present.
  EXPECT_EQ(violation_count(put(1, 1, 0, 10),
                            put(1, 2, 20, 30, 0, /*ok=*/false),
                            get(1, 1, 40, 50)),
            1u);
}

TEST(LinearChecker, GetFromAbsentKeyMustReturnZero) {
  EXPECT_FALSE(clean_history(get(1, 3, 0, 10)));
  EXPECT_FALSE(clean_history(cas(1, 3, 4, 3, true, 0, 10)));  // absent key
}

// --- deep histories: the search itself ------------------------------------

// A GET of 7 spanning the whole run, then 63 sequential PUTs of 101..163,
// then PUT(7) and a CAS 163->7 (`cas_expects`) that overlap each other.
// The GET can only linearize after one of the last two writes, i.e. after
// 65 later-invoked ops. Applying the PUT first leads nowhere (the CAS then
// never finds 163), so the search must back out and apply the CAS first.
// Both of those states hold 7 and differ only in an op 64 or more places
// past the undone GET: a memo that ignored ops beyond its 64-op window
// would confuse them and wrongly prune the legal one.
void record_long_get_history(LinearChecker& ck, std::int64_t cas_expects) {
  ck.record(get(1, 7, 0, 100'000));
  for (int i = 1; i <= 63; ++i) {
    ck.record(put(1, 100 + i, 10 * i, 10 * i + 5));
  }
  ck.record(put(1, 7, 1000, 1100, 1));
  ck.record(cas(1, cas_expects, 7, cas_expects, true, 1001, 1100, 2));
}

TEST(LinearChecker, LongOpLinearizesAfterSixtyFourLaterOps) {
  LinearChecker legal;
  record_long_get_history(legal, /*cas_expects=*/163);
  EXPECT_TRUE(legal.clean()) << legal.check().front().diag;

  // The CAS expects 162, which PUT(163) overwrote before the CAS was
  // invoked: no order of the 66 ops is legal.
  LinearChecker illegal;
  record_long_get_history(illegal, /*cas_expects=*/162);
  const auto& vs = illegal.check();
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_NE(vs[0].diag.find("no legal linearization"), std::string::npos);
}

TEST(LinearChecker, LongOverlappingHistoryIsSearchedWithinBudget) {
  // 25 000 rounds of a GET invoked just before the PUT whose value it
  // returns; each op also overlaps the next round. Invocation order reads
  // every value one round early, so the fast path fails and the whole
  // 50 000-event history goes through the backtracking search.
  LinearChecker ck;
  constexpr int kRounds = 25'000;
  for (int i = 0; i < kRounds; ++i) {
    const sim::Time t = 4 * static_cast<sim::Time>(i);
    ck.record(get(1, i + 1, t, t + 6, 0));
    ck.record(put(1, i + 1, t + 1, t + 5, 1));
  }
  ASSERT_EQ(ck.ops_recorded(), 2u * kRounds);
  EXPECT_TRUE(ck.clean()) << ck.check().front().diag;
}

// --- determinism of the verdict machinery ---------------------------------

TEST(LinearChecker, HistoryHashIsArrivalOrderInvariant) {
  const KvEvent a = put(1, 1, 0, 10, 0);
  const KvEvent b = get(1, 1, 20, 30, 1);
  const KvEvent c = put(2, 5, 0, 10, 1);
  LinearChecker fwd, rev;
  record_all(fwd, a, b, c);
  record_all(rev, c, b, a);
  EXPECT_EQ(fwd.history_hash(), rev.history_hash());
  EXPECT_TRUE(fwd.clean());
  EXPECT_TRUE(rev.clean());
}

TEST(LinearChecker, ResetClearsEverything) {
  LinearChecker ck;
  record_all(ck, get(1, 3, 0, 10));
  EXPECT_FALSE(ck.clean());
  ck.reset();
  EXPECT_TRUE(ck.clean());
  EXPECT_EQ(ck.ops_recorded(), 0u);
}

// --- end-to-end: the broken store variant must be caught ------------------

TEST(LinearCheckerEndToEnd, KvProofCatchesPlantedBugAndReproReplays) {
  // The KV proof plants KvConfig::skip_unlock_flush (value PUT unordered
  // w.r.t. the lock release) under a delay-heavy network, requires the
  // checker to flag the stale read, minimizes the failing op prefix, writes
  // the repro file, re-parses it, and replays it. Any weak link returns
  // nothing.
  const std::string dir = ::testing::TempDir();
  EXPECT_FALSE(check::prove<check::KvWorkload>(/*base_seed=*/1,
                                               /*schedules=*/2, dir)
                   .empty());
}

}  // namespace
