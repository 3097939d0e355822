// Tests for the conformance harness itself: the shadow-memory oracle, the
// schedule-perturbation hook, the fuzzer's case generator, and the repro
// round-trip. The harness is only trustworthy if it (a) stays silent on
// correct executions and (b) provably fires on injected bugs.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "check/campaign.hpp"
#include "check/fuzz.hpp"
#include "check/history.hpp"
#include "check/kvfuzz.hpp"
#include "check/mwfuzz.hpp"
#include "check/oracle.hpp"
#include "mpi/runtime.hpp"
#include "net/profile.hpp"

using namespace casper;

namespace {

mpi::RunConfig small_rc(int nodes, int cores) {
  mpi::RunConfig rc;
  rc.machine.profile = net::cray_xc30_regular();
  rc.machine.topo.nodes = nodes;
  rc.machine.topo.cores_per_node = cores;
  return rc;
}

}  // namespace

// A correct RMA exchange must never trip the oracle, and every committed op
// must have been observed.
TEST(ShadowOracle, CleanOnCorrectExecution) {
  check::ShadowOracle oracle;
  mpi::Runtime rt(small_rc(1, 2), [](mpi::Env& env) {
    mpi::Comm w = env.world();
    const int me = env.rank(w);
    void* base = nullptr;
    mpi::Win win = env.win_allocate(64, 1, mpi::Info{}, w, &base);
    env.win_lock_all(0, win);
    const double v = 3.5;
    if (me == 0) {
      env.put(&v, 1, mpi::contig(mpi::Dt::Double), 1, 0, 1,
              mpi::contig(mpi::Dt::Double), win);
      env.accumulate(&v, 1, mpi::contig(mpi::Dt::Double), 1, 8, 1,
                     mpi::contig(mpi::Dt::Double), mpi::AccOp::Sum, win);
    }
    env.win_unlock_all(win);
    env.barrier(w);
    env.win_free(win);
  });
  rt.add_observer(&oracle);
  rt.run();
  EXPECT_TRUE(oracle.clean());
  EXPECT_GE(oracle.commits_seen(), 2u);
  EXPECT_GE(oracle.syncs_seen(), 2u);
  EXPECT_GE(oracle.validations(), 2u);
  EXPECT_GE(oracle.bytes_tracked(), 128u);
}

// Scribbling on window memory behind the runtime's back is exactly the class
// of corruption the oracle exists to see; the next sync must report it.
TEST(ShadowOracle, DetectsOutOfBandCorruption) {
  check::ShadowOracle oracle;
  mpi::Runtime rt(small_rc(1, 2), [](mpi::Env& env) {
    mpi::Comm w = env.world();
    const int me = env.rank(w);
    void* base = nullptr;
    mpi::Win win = env.win_allocate(64, 1, mpi::Info{}, w, &base);
    env.win_lock_all(0, win);
    const double v = 1.0;
    if (me == 0) {
      env.put(&v, 1, mpi::contig(mpi::Dt::Double), 1, 0, 1,
              mpi::contig(mpi::Dt::Double), win);
    }
    env.win_flush_all(win);
    if (me == 0) static_cast<unsigned char*>(base)[8] ^= 0xff;
    env.win_unlock_all(win);
    env.barrier(w);
    env.win_free(win);
  });
  rt.add_observer(&oracle);
  rt.run();
  ASSERT_FALSE(oracle.clean());
  EXPECT_EQ(oracle.divergences()[0].nbytes, 1u);
  EXPECT_EQ(oracle.divergences()[0].span_off % 64, 8u);
}

// Generated cases are deterministic in the seed and structurally sane.
TEST(Fuzzer, CaseGenerationIsDeterministicAndSane) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const check::FuzzCase a = check::make_case(seed, true);
    const check::FuzzCase b = check::make_case(seed, true);
    ASSERT_EQ(a.ops.size(), b.ops.size());
    ASSERT_GE(a.nusers(), 2);
    ASSERT_FALSE(a.ops.empty());
    for (std::size_t i = 0; i < a.ops.size(); ++i) {
      EXPECT_EQ(a.ops[i].kind, b.ops[i].kind);
      EXPECT_EQ(a.ops[i].disp, b.ops[i].disp);
      EXPECT_EQ(a.ops[i].val, b.ops[i].val);
      ASSERT_LT(a.ops[i].origin, a.nusers());
      ASSERT_LT(a.ops[i].target, a.nusers());
      // Every op fits inside the target segment.
      ASSERT_LE(a.ops[i].disp +
                    mpi::span_bytes(a.ops[i].count, a.ops[i].tdt),
                a.seg_bytes());
    }
  }
}

namespace {

/// FNV-1a of W::write_case over every op of `c`.
template <class W>
std::uint64_t case_hash(const typename W::Case& c, std::uint64_t h) {
  std::FILE* f = std::tmpfile();
  if (f == nullptr) return 0;
  W::write_case(f, c, c.ops.size());
  std::rewind(f);
  char buf[4096];
  for (std::size_t n; (n = std::fread(buf, 1, sizeof(buf), f)) > 0;) {
    h = check::fnv1a(buf, n, h);
  }
  std::fclose(f);
  return h;
}

}  // namespace

// The seed -> case map is part of the corpus: every check.sh count, proof
// seed and repro depends on it. Each generator's whole output for seeds 1-40
// is pinned to the value the generators had when the pins were recorded, so
// a draw that moves, appears or disappears fails here.
TEST(Fuzzer, CaseGenerationIsPinned) {
  std::uint64_t rma = check::kFnvBasis;
  std::uint64_t kv = check::kFnvBasis;
  std::uint64_t mw = check::kFnvBasis;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    for (const bool reduced : {true, false}) {
      rma = case_hash<check::RmaWorkload>(
          {check::make_case(seed, reduced), false}, rma);
      rma = case_hash<check::RmaWorkload>(
          {check::make_racy_case(seed, reduced, 2), false}, rma);
    }
    for (const bool lockfree : {false, true}) {
      check::Repro r;
      r.seed = seed;
      r.lockfree = lockfree;
      kv = case_hash<check::KvWorkload>(check::KvWorkload::generate(r), kv);
    }
    for (const bool reduced : {true, false}) {
      mw = case_hash<check::MwWorkload>(check::make_mw_case(seed, reduced),
                                        mw);
    }
  }
  EXPECT_EQ(rma, 0xe753a0266af1011aULL);
  EXPECT_EQ(kv, 0xc40576d378484b0aULL);
  EXPECT_EQ(mw, 0x455db0ac2d9a94d6ULL);
}

// A handful of corpus seeds run clean under the classic schedule.
TEST(Fuzzer, CorpusSeedsRunClean) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const check::FuzzCase fc = check::make_case(seed, true);
    const check::RunOutcome out = check::run_case(fc, 0);
    EXPECT_TRUE(out.oracle_clean())
        << "seed " << seed << ": " << out.divergences.size()
        << " divergence(s), " << out.atomicity_violations << " violation(s)";
    EXPECT_GT(out.commits, 0u) << "seed " << seed;
  }
}

// Schedule perturbation must (a) be reproducible for equal seeds, (b)
// actually change the interleaving for some case, and (c) never change the
// final window contents of a schedule-invariant program.
TEST(Fuzzer, PerturbedSchedulesAreReproducibleAndEquivalent) {
  bool any_trace_changed = false;
  int invariant_checked = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const check::FuzzCase fc = check::make_case(seed, true);
    const check::RunOutcome base = check::run_case(fc, 0);
    for (int s = 1; s < 3; ++s) {
      const std::uint64_t p = check::perturb_for(seed, s);
      ASSERT_NE(p, 0u);
      const check::RunOutcome a = check::run_case(fc, p);
      const check::RunOutcome b = check::run_case(fc, p);
      EXPECT_TRUE(a.oracle_clean()) << "seed " << seed << " perturb " << p;
      // Bit-reproducible: same program + same perturb seed = same schedule.
      ASSERT_EQ(a.trace.size(), b.trace.size());
      for (std::size_t i = 0; i < a.trace.size(); ++i) {
        ASSERT_EQ(a.trace[i].t, b.trace[i].t);
        ASSERT_EQ(a.trace[i].rank, b.trace[i].rank);
      }
      if (a.trace.size() != base.trace.size()) {
        any_trace_changed = true;
      } else {
        for (std::size_t i = 0; i < a.trace.size(); ++i) {
          if (a.trace[i].rank != base.trace[i].rank) {
            any_trace_changed = true;
            break;
          }
        }
      }
      if (!fc.order_sensitive) {
        ++invariant_checked;
        EXPECT_EQ(a.content_hash, base.content_hash)
            << "seed " << seed << " perturb " << p;
      }
    }
  }
  EXPECT_TRUE(any_trace_changed)
      << "perturbation never altered any schedule";
  EXPECT_GT(invariant_checked, 0);
}

// The deliberately flipped segment->ghost binding (core::Config::Fault) must
// be caught by the oracle on some corpus case — this is the harness's proof
// of life.
TEST(Fuzzer, InjectedBindingBugIsCaught) {
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    const check::FuzzCase fc = check::make_case(seed, true);
    if (fc.binding != core::Binding::Segment || fc.ghosts < 2) continue;
    for (int s = 0; s < 4; ++s) {
      const check::RunOutcome out =
          check::run_case(fc, check::perturb_for(seed, s), true);
      if (!out.oracle_clean()) {
        SUCCEED();
        return;
      }
    }
  }
  FAIL() << "flipped segment binding was never detected";
}

TEST(Fuzzer, MinimizePrefixFindsSmallestFailing) {
  int calls = 0;
  const int k = check::minimize_prefix(40, [&](int n) {
    ++calls;
    return n >= 17;
  });
  EXPECT_EQ(k, 17);
  EXPECT_LE(calls, 10);
  EXPECT_EQ(check::minimize_prefix(5, [](int n) { return n >= 1; }), 1);
  // Nothing fails: falls back to total.
  EXPECT_EQ(check::minimize_prefix(5, [](int) { return false; }), 5);
}

namespace {

/// write_repro -> parse_repro -> replay_file for workload W: a failing case
/// with its planted bug under a plan holding net faults, a ghost kill and
/// a stall. Every written field must parse back equal, and the file must
/// reproduce the failure.
template <class W>
void round_trip() {
  const check::PlantedBug<W>& bug = W::bugs().front();
  const check::Check<W>& primary = W::checks().front();
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    check::Repro rp;
    rp.workload = W::kName;
    rp.seed = seed;
    rp.bug = bug.name;
    typename W::Case c = W::generate(rp);
    const std::vector<int> ghosts = c.ghost_ranks();
    if (!bug.candidate(c) || ghosts.empty()) continue;
    bug.plant(c);
    if (bug.faults != nullptr) {
      bug.faults(c);
    } else {
      check::add_lossy_net(c.fault_plan, seed, W::kLossyNet);
    }
    c.fault_plan.kills.push_back({ghosts.back(), sim::us(40)});
    c.fault_plan.stalls.push_back({ghosts.front(), sim::us(5), sim::us(3)});
    c.fault_plan.heartbeat_period = sim::us(2);
    rp.plan = c.fault_plan;
    for (int s = 0; s < 4; ++s) {
      rp.perturb = check::perturb_for(seed, s);
      const typename W::Outcome out = W::run(c, rp.perturb, check::kAllOps);
      if (!primary.fails(c, check::kAllOps, out)) continue;

      rp.kind = primary.kind;
      rp.prefix_ops = static_cast<int>(c.ops.size());
      const std::string path =
          check::write_repro<W>(rp, c, out, testing::TempDir());
      ASSERT_FALSE(path.empty()) << W::kName;
      check::Repro back;
      ASSERT_TRUE(check::parse_repro(path, back)) << W::kName;
      EXPECT_EQ(back.workload, rp.workload);
      EXPECT_EQ(back.kind, rp.kind);
      EXPECT_EQ(back.seed, rp.seed);
      EXPECT_EQ(back.perturb, rp.perturb);
      EXPECT_EQ(back.prefix_ops, rp.prefix_ops);
      EXPECT_EQ(back.reduced, rp.reduced);
      EXPECT_EQ(back.bug, rp.bug);
      const fault::FaultPlan& a = rp.plan;
      const fault::FaultPlan& b = back.plan;
      EXPECT_EQ(b.seed, a.seed);
      EXPECT_EQ(b.net.drop_p, a.net.drop_p);
      EXPECT_EQ(b.net.dup_p, a.net.dup_p);
      EXPECT_EQ(b.net.delay_p, a.net.delay_p);
      EXPECT_EQ(b.net.delay_min, a.net.delay_min);
      EXPECT_EQ(b.net.delay_max, a.net.delay_max);
      EXPECT_EQ(b.net.ack_drop_p, a.net.ack_drop_p);
      EXPECT_EQ(b.rto_base, a.rto_base);
      EXPECT_EQ(b.max_retries, a.max_retries);
      EXPECT_EQ(b.heartbeat_period, a.heartbeat_period);
      ASSERT_EQ(b.kills.size(), 1u) << W::kName;
      EXPECT_EQ(b.kills[0].world_rank, a.kills[0].world_rank);
      EXPECT_EQ(b.kills[0].at, a.kills[0].at);
      ASSERT_EQ(b.stalls.size(), 1u) << W::kName;
      EXPECT_EQ(b.stalls[0].world_rank, a.stalls[0].world_rank);
      EXPECT_EQ(b.stalls[0].at, a.stalls[0].at);
      EXPECT_EQ(b.stalls[0].duration, a.stalls[0].duration);
      EXPECT_TRUE(check::replay_file(path).reproduced) << W::kName;
      std::remove(path.c_str());
      return;
    }
  }
  FAIL() << W::kName << ": no planted-bug failure found to round-trip";
}

std::string read_text(const std::string& path) {
  std::string text;
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return text;
  char buf[4096];
  for (std::size_t n; (n = std::fread(buf, 1, sizeof(buf), f)) > 0;) {
    text.append(buf, n);
  }
  std::fclose(f);
  return text;
}

/// Copy of `text` without its line starting with `key `, or with that line's
/// value replaced by `value` when one is given.
std::string edit_line(const std::string& text, const std::string& key,
                      const char* value) {
  const std::size_t at = text.find("\n" + key + " ") + 1;
  const std::size_t end = text.find('\n', at) + 1;
  const std::string repl = value == nullptr ? "" : key + " " + value + "\n";
  return text.substr(0, at) + repl + text.substr(end);
}

bool replays_valid(const std::string& text) {
  const std::string path = testing::TempDir() + "casper_edited_repro.txt";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs(text.c_str(), f);
  std::fclose(f);
  const bool valid = check::replay_file(path).valid;
  std::remove(path.c_str());
  return valid;
}

}  // namespace

TEST(Fuzzer, ReproFileRoundTrips) {
  round_trip<check::RmaWorkload>();
  round_trip<check::KvWorkload>();
  round_trip<check::MwWorkload>();
}

// replay_file dispatches on the file's `workload` tag: each workload's proof
// repro replays under its own workload, and a file with an unknown tag, or
// without `seed` or `kind`, is rejected instead of being replayed as some
// other workload.
TEST(Fuzzer, ReplayFileDispatchesOnWorkloadTag) {
  std::vector<check::Failure> proofs;
  for (const auto& caught :
       {check::prove<check::RmaWorkload>(1, 2, testing::TempDir()),
        check::prove<check::KvWorkload>(1, 2, testing::TempDir()),
        check::prove<check::MwWorkload>(1, 2, testing::TempDir())}) {
    ASSERT_FALSE(caught.empty());
    proofs.insert(proofs.end(), caught.begin(), caught.end());
  }
  for (const check::Failure& f : proofs) {
    const check::ReplayResult r = check::replay_file(f.repro_path);
    EXPECT_TRUE(r.valid && r.reproduced) << f.repro_path;
    const std::string text = read_text(f.repro_path);
    EXPECT_FALSE(replays_valid(edit_line(text, "workload", "bogus")));
    EXPECT_FALSE(replays_valid(edit_line(text, "seed", nullptr)));
    EXPECT_FALSE(replays_valid(edit_line(text, "kind", nullptr)));
    std::remove(f.repro_path.c_str());
  }
}
