#include "check/fuzz.hpp"

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <numeric>

#include "check/history.hpp"
#include "mpi/datatype.hpp"
#include "mpi/runtime.hpp"
#include "obs/record.hpp"
#include "sim/rng.hpp"

namespace casper::check {

using mpi::AccOp;
using mpi::Datatype;
using mpi::Dt;
using mpi::OpKind;

namespace {

const char* kind_name(OpKind k) {
  switch (k) {
    case OpKind::Put: return "put";
    case OpKind::Get: return "get";
    case OpKind::Acc: return "acc";
    case OpKind::GetAcc: return "getacc";
    case OpKind::Fao: return "fao";
    case OpKind::Cas: return "cas";
    default: return "?";
  }
}

/// Fill `n` basic elements of type `base` at `dst` with val, val+1, ...
void fill_elems(std::byte* dst, int n, Dt base, std::int64_t val) {
  for (int j = 0; j < n; ++j) {
    const std::int64_t v = val + j;
    switch (base) {
      case Dt::Byte: {
        dst[j] = static_cast<std::byte>(v & 0xff);
        break;
      }
      case Dt::Int: {
        const std::int32_t x = static_cast<std::int32_t>(v);
        std::memcpy(dst + 4 * j, &x, 4);
        break;
      }
      case Dt::Double: {
        const double x = static_cast<double>(v);
        std::memcpy(dst + 8 * j, &x, 8);
        break;
      }
    }
  }
}

/// Per-origin PUT datatype: fixed per origin so repeated puts to the same
/// slot bytes always use the same element layout.
Dt put_dt_of(int origin) {
  switch (origin % 3) {
    case 0: return Dt::Double;
    case 1: return Dt::Int;
    default: return Dt::Byte;
  }
}

/// Issues one op. Origin and result buffers are parked in `keep`: MPI origin
/// buffers must stay valid until the epoch's completing synchronization (the
/// runtime unpacks GET/GET_ACC/FAO/CAS results into them at completion time).
void issue_one(mpi::Env& env, const OpRec& op, const mpi::Win& win,
               std::vector<std::vector<std::byte>>& keep) {
  const std::size_t db = mpi::data_bytes(op.count, op.tdt);
  const int oc = op.count * op.tdt.blocklen;
  const Datatype odt = mpi::contig(op.tdt.base);
  keep.emplace_back(db);
  std::byte* buf = keep.back().data();
  keep.emplace_back(db);
  std::byte* res = keep.back().data();
  fill_elems(buf, oc, op.tdt.base, op.val);
  if (op.local) {
    // Racy mode: a direct load/store on the origin's own exposed segment,
    // observed by the race analyzer via the Env local-access hooks.
    if (op.kind == OpKind::Put) {
      env.local_store(buf, op.disp, db, win);
    } else {
      env.local_load(res, op.disp, db, win);
    }
    return;
  }
  switch (op.kind) {
    case OpKind::Put:
      env.put(buf, oc, odt, op.target, op.disp, op.count, op.tdt, win);
      break;
    case OpKind::Get:
      env.get(res, oc, odt, op.target, op.disp, op.count, op.tdt, win);
      break;
    case OpKind::Acc:
      env.accumulate(buf, oc, odt, op.target, op.disp, op.count, op.tdt,
                     op.aop, win);
      break;
    case OpKind::GetAcc:
      env.get_accumulate(buf, oc, odt, res, oc, odt, op.target, op.disp,
                         op.count, op.tdt, op.aop, win);
      break;
    case OpKind::Fao:
      env.fetch_and_op(buf, res, op.tdt.base, op.target, op.disp, op.aop,
                       win);
      break;
    case OpKind::Cas: {
      const std::size_t es = op.tdt.elem_size();
      keep.emplace_back(2 * es);
      std::byte* cd = keep.back().data();
      fill_elems(cd, 1, op.tdt.base, op.val & 0xff);
      fill_elems(cd + es, 1, op.tdt.base, (op.val >> 8) & 0xff);
      env.compare_and_swap(cd, cd + es, res, op.tdt.base, op.target, op.disp,
                           win);
      break;
    }
    default:
      break;
  }
}

void fuzz_body(mpi::Env& env, const FuzzCase& fc, RunOutcome& out) {
  mpi::Comm w = env.world();
  const int me = env.rank(w);
  const int p = env.size(w);
  mpi::Info info;
  if (fc.hint_exact) info.set(core::kEpochsUsedKey, to_string(fc.epoch));
  void* base = nullptr;
  mpi::Win win = env.win_allocate(fc.seg_bytes(), 1, info, w, &base);

  std::vector<int> everyone(static_cast<std::size_t>(p));
  std::iota(everyone.begin(), everyone.end(), 0);
  mpi::Group g(everyone);

  // Origin/result scratch buffers. MPI origin buffers must stay valid until
  // the epoch's completing synchronization, and under the fence style a
  // middle round is only completed by the NEXT round's fence call — so the
  // buffers live for the whole body, released after the final sync.
  std::vector<std::vector<std::byte>> keep;

  for (int r = 0; r < fc.rounds; ++r) {
    std::vector<const OpRec*> mine;
    for (const auto& op : fc.ops) {
      if (op.round == r && op.origin == me) mine.push_back(&op);
    }

    switch (fc.epoch) {
      case EpochStyle::Fence:
        // First fence opens with NOPRECEDE; middle fences close the previous
        // round and open the next in one call.
        env.win_fence(r == 0 ? mpi::kModeNoPrecede : 0u, win);
        break;
      case EpochStyle::Pscw: {
        const unsigned a = fc.pscw_nocheck ? mpi::kModeNoCheck : 0u;
        env.win_post(g, a, win);
        // NOCHECK is only legal when the post→start ordering is guaranteed
        // by other means; a barrier provides it.
        if (fc.pscw_nocheck) env.barrier(w);
        env.win_start(g, a, win);
        break;
      }
      case EpochStyle::Lock:
        for (int t = 0; t < p; ++t) {
          env.win_lock(mpi::LockType::Shared, t, 0, win);
        }
        break;
      case EpochStyle::LockAll:
        env.win_lock_all(0, win);
        break;
    }

    const std::size_t half = mine.size() / 2;
    for (std::size_t i = 0; i < mine.size(); ++i) {
      if (fc.mid_flush && i == half && i != 0) {
        // Completes everything issued so far and (under a lock) opens the
        // static-binding-free interval dynamic binding needs (III.B.3).
        env.win_flush_all(win);
      }
      issue_one(env, *mine[i], win, keep);
    }

    switch (fc.epoch) {
      case EpochStyle::Fence:
        if (r == fc.rounds - 1) env.win_fence(mpi::kModeNoSucceed, win);
        break;
      case EpochStyle::Pscw:
        env.win_complete(win);
        env.win_wait(win);
        break;
      case EpochStyle::Lock:
        for (int t = 0; t < p; ++t) env.win_unlock(t, win);
        break;
      case EpochStyle::LockAll:
        env.win_unlock_all(win);
        break;
    }
  }

  env.barrier(w);
  out.content_hash[static_cast<std::size_t>(me)] =
      fnv1a(base, fc.seg_bytes());
  out.world_of[static_cast<std::size_t>(me)] = env.world_rank();
  env.win_free(win);
}

}  // namespace

FuzzCase make_case(std::uint64_t seed, bool reduced) {
  sim::Rng rng(seed, 0xfa22);
  FuzzCase fc;
  fc.seed = seed;
  draw_topology(rng, fc);
  draw_routing(rng, fc);
  fc.epoch = static_cast<EpochStyle>(rng.next_below(4));
  fc.rounds = 1 + static_cast<int>(rng.next_below(2));
  fc.mid_flush = (fc.epoch == EpochStyle::Lock ||
                  fc.epoch == EpochStyle::LockAll) &&
                 rng.next_below(2) != 0;
  fc.pscw_nocheck = fc.epoch == EpochStyle::Pscw && rng.next_below(4) == 0;
  fc.hint_exact = rng.next_below(2) != 0;
  fc.acc_dt = rng.next_below(2) ? Dt::Double : Dt::Int;
  switch (rng.next_below(3)) {
    case 0: fc.acc_op = AccOp::Sum; break;
    case 1: fc.acc_op = AccOp::Min; break;
    default: fc.acc_op = AccOp::Max; break;
  }
  fc.order_sensitive = rng.next_below(4) == 0;
  fc.slot_bytes = reduced ? 64 : 128;
  // Separate stream: toggling the controller into the config fuzz space must
  // not shift the 0xfa22 draws that shape the established seed corpus.
  fc.adaptive = sim::Rng(seed, 0xada7).next_below(4) == 0;

  const int nu = fc.nusers();
  const int per_origin =
      (reduced ? 2 : 4) + static_cast<int>(rng.next_below(reduced ? 4 : 6));
  const std::size_t acc_base =
      static_cast<std::size_t>(nu) * fc.slot_bytes;
  const std::size_t ro_base = acc_base + fc.slot_bytes;
  const std::size_t acc_es = dt_size(fc.acc_dt);
  const std::size_t acc_cap = fc.slot_bytes / acc_es;

  // Place an accumulate-class op into the shared acc region; returns it
  // fully resolved except kind (caller picks Acc / GetAcc / Fao / Cas).
  auto acc_shape = [&](OpRec& op) {
    bool strided = rng.next_below(4) == 0;
    int count = 1 + static_cast<int>(rng.next_below(4));
    std::size_t span_e =
        strided ? 2 * static_cast<std::size_t>(count) - 1
                : static_cast<std::size_t>(count);
    if (span_e > acc_cap) {
      strided = false;
      count = 1;
      span_e = 1;
    }
    const std::size_t idx = rng.next_below(acc_cap - span_e + 1);
    op.tdt = strided ? mpi::vector_of(fc.acc_dt, 1, 2)
                     : mpi::contig(fc.acc_dt);
    op.count = count;
    op.disp = acc_base + idx * acc_es;
    op.aop = fc.acc_op;
    switch (fc.acc_op) {
      case AccOp::Sum:
        op.val = 1 + static_cast<std::int64_t>(rng.next_below(4));
        break;
      case AccOp::Min:
        op.val = -1 - static_cast<std::int64_t>(rng.next_below(100));
        break;
      default:
        op.val = 1 + static_cast<std::int64_t>(rng.next_below(100));
        break;
    }
  };

  for (int r = 0; r < fc.rounds; ++r) {
    // Per-(origin, target) bump cursor keeps one round's puts from one
    // origin byte-disjoint (conflicting same-epoch puts are an MPI usage
    // error and would be order-sensitive anyway). Rounds are separated by a
    // completing sync, so the cursor resets.
    std::vector<std::size_t> cursor(
        static_cast<std::size_t>(nu) * static_cast<std::size_t>(nu), 0);
    for (int o = 0; o < nu; ++o) {
      for (int i = 0; i < per_origin; ++i) {
        OpRec op;
        op.origin = o;
        op.round = r;
        op.target = static_cast<int>(rng.next_below(
            static_cast<std::uint64_t>(nu)));
        std::uint64_t roll = rng.next_below(100);
        if (fc.order_sensitive && rng.next_below(5) == 0) {
          // Order-sensitive spice: CAS or ACC-Replace on the acc region.
          acc_shape(op);
          if (rng.next_below(2) != 0) {
            op.kind = OpKind::Cas;
            op.count = 1;
            op.tdt = mpi::contig(fc.acc_dt);
            op.disp = acc_base;
            op.val = static_cast<std::int64_t>(rng.next_below(1 << 16));
          } else {
            op.kind = OpKind::Acc;
            op.aop = AccOp::Replace;
            op.val = static_cast<std::int64_t>(rng.next_below(256));
          }
          fc.ops.push_back(op);
          continue;
        }
        if (roll < 40) {
          // PUT into my exclusive slot on the target.
          const Dt pdt = put_dt_of(o);
          const std::size_t es = dt_size(pdt);
          const bool strided = rng.next_below(4) == 0;
          const int count = 1 + static_cast<int>(rng.next_below(4));
          const Datatype tdt =
              strided ? mpi::vector_of(pdt, 1, 2) : mpi::contig(pdt);
          const std::size_t span = mpi::span_bytes(count, tdt);
          const std::size_t span8 = (span + 7) & ~std::size_t{7};
          std::size_t& cur = cursor[static_cast<std::size_t>(o) *
                                        static_cast<std::size_t>(nu) +
                                    static_cast<std::size_t>(op.target)];
          if (cur + span8 <= fc.slot_bytes) {
            op.kind = OpKind::Put;
            op.tdt = tdt;
            op.count = count;
            op.disp = static_cast<std::size_t>(o) * fc.slot_bytes + cur;
            op.val = 16 * (o + 1) +
                     static_cast<std::int64_t>(rng.next_below(16));
            cur += span8;
            (void)es;
            fc.ops.push_back(op);
            continue;
          }
          roll = 50 + rng.next_below(50);  // slot full: fall through
        }
        if (roll < 55) {
          // GET from the never-written read-only slot.
          const bool strided = rng.next_below(4) == 0;
          const int count = 1 + static_cast<int>(rng.next_below(4));
          const Datatype tdt = strided ? mpi::vector_of(Dt::Double, 1, 2)
                                       : mpi::contig(Dt::Double);
          const std::size_t cap = fc.slot_bytes / 8;
          const std::size_t span_e =
              strided ? 2 * static_cast<std::size_t>(count) - 1
                      : static_cast<std::size_t>(count);
          const std::size_t idx =
              span_e >= cap ? 0 : rng.next_below(cap - span_e + 1);
          op.kind = OpKind::Get;
          op.tdt = tdt;
          op.count = span_e >= cap ? 1 : count;
          op.disp = ro_base + idx * 8;
          fc.ops.push_back(op);
          continue;
        }
        if (roll < 80) {
          acc_shape(op);
          op.kind = OpKind::Acc;
        } else if (roll < 90) {
          acc_shape(op);
          op.kind = OpKind::GetAcc;
        } else {
          acc_shape(op);
          op.kind = OpKind::Fao;
          op.count = 1;
          op.tdt = mpi::contig(fc.acc_dt);
        }
        fc.ops.push_back(op);
      }
    }
  }
  return fc;
}

FuzzCase make_racy_case(std::uint64_t seed, bool reduced, int races) {
  FuzzCase fc = make_case(seed, reduced);
  // Racing writes make final contents schedule-dependent; skip the
  // cross-schedule content comparison, keep everything else.
  fc.order_sensitive = true;
  sim::Rng rng(seed, 0xace5);
  const int nu = fc.nusers();
  for (int i = 0; i < races; ++i) {
    FuzzCase::PlantedRace pr;
    pr.target = static_cast<int>(rng.next_below(
        static_cast<std::uint64_t>(nu)));
    const int round = static_cast<int>(rng.next_below(
        static_cast<std::uint64_t>(fc.rounds)));
    // Variant 2 (local-store vs PUT) stores from the target rank itself, so
    // the remote writer must be someone else.
    const int variant = static_cast<int>(rng.next_below(3));
    int o1 = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(nu)));
    if (variant == 2 && o1 == pr.target) o1 = (o1 + 1) % nu;
    int o2 = static_cast<int>(
        rng.next_below(static_cast<std::uint64_t>(nu - 1)));
    if (o2 >= o1) ++o2;
    // 8-aligned overlap range inside o1's put slot on the target. It may
    // also overlap o1's organic puts — extra true conflicts, all carrying
    // the same origin pair, so coverage checks are unaffected.
    const std::size_t cap8 = fc.slot_bytes / 8;
    const std::size_t len8 = 1 + rng.next_below(std::min<std::size_t>(cap8, 3));
    const std::size_t off8 = rng.next_below(cap8 - len8 + 1);
    pr.lo = static_cast<std::size_t>(o1) * fc.slot_bytes + off8 * 8;
    pr.hi = pr.lo + len8 * 8;

    OpRec a;
    a.round = round;
    a.target = pr.target;
    a.disp = pr.lo;
    a.count = static_cast<int>(pr.hi - pr.lo);
    a.tdt = mpi::contig(Dt::Byte);
    a.val = 0x40 + i;
    OpRec b = a;
    b.val = 0x80 + i;
    switch (variant) {
      case 0:  // PUT vs PUT
        a.kind = OpKind::Put;
        a.origin = o1;
        b.kind = OpKind::Put;
        b.origin = o2;
        break;
      case 1:  // PUT vs GET
        a.kind = OpKind::Put;
        a.origin = o1;
        b.kind = OpKind::Get;
        b.origin = o2;
        break;
      default:  // local store on the exposed segment vs a remote PUT
        a.kind = OpKind::Put;
        a.origin = pr.target;
        a.local = true;
        b.kind = OpKind::Put;
        b.origin = o1;
        break;
    }
    pr.origin_a = a.origin;
    pr.origin_b = b.origin;
    pr.op_a = static_cast<int>(fc.ops.size());
    fc.ops.push_back(a);
    pr.op_b = static_cast<int>(fc.ops.size());
    fc.ops.push_back(b);
    fc.planted.push_back(pr);
  }
  return fc;
}

bool planted_flagged(const RunOutcome& out, const FuzzCase::PlantedRace& pr) {
  const auto world = [&](int user_rank) {
    const auto i = static_cast<std::size_t>(user_rank);
    return i < out.world_of.size() ? out.world_of[i] : user_rank;
  };
  const int wa = std::min(world(pr.origin_a), world(pr.origin_b));
  const int wb = std::max(world(pr.origin_a), world(pr.origin_b));
  for (const RaceAnalyzer::Group& g : out.race_groups) {
    if (g.target != pr.target || g.origin_a != wa || g.origin_b != wb)
      continue;
    for (const auto& [lo, hi] : g.ranges) {
      if (lo < pr.hi && hi > pr.lo) return true;
    }
  }
  return false;
}

RunOutcome run_case(const FuzzCase& fc, std::uint64_t perturb_seed,
                    bool inject_flip_fault) {
  core::Config cc = fc.casper();
  cc.adaptive.enabled = fc.adaptive;
  cc.fault.flip_segment_binding = inject_flip_fault;

  RunOutcome out;
  out.content_hash.assign(static_cast<std::size_t>(fc.nusers()), 0);
  out.world_of.assign(static_cast<std::size_t>(fc.nusers()), -1);
  ShadowOracle oracle;
  RaceAnalyzer race;
  DeployedRun run(fc, cc, perturb_seed, 1, /*on_request=*/true,
                  [&fc, &out](mpi::Env& env) { fuzz_body(env, fc, out); });
  race.set_recorder(run.recorder());
  run.runtime().add_observer(&oracle);
  run.runtime().add_observer(&race);
  run.runtime().engine().set_schedule_trace(&out.trace);
  run.run();
  out.divergences = oracle.divergences();
  out.commits = oracle.commits_seen();
  out.race_conflict_events = race.conflict_events();
  out.race_conflict_bytes = race.conflict_bytes();
  out.race_groups = race.groups();
  for (const RaceConflict& c : race.conflicts()) {
    out.race_diags.push_back(c.diag);
    if (out.race_diags.size() >= 8) break;
  }
  // Repro files embed the tail of the virtual-time trace when CASPER_TRACE
  // attached a recorder (scripts/check.sh stage 11).
  if (obs::Recorder* rec = run.recorder())
    out.trace_tail = rec->trace().tail_text(32);
  run.snapshot(out, "race.");
  return out;
}

RmaCase RmaWorkload::generate(const Repro& r) {
  RmaCase c{r.races > 0 ? make_racy_case(r.seed, r.reduced, r.races)
                        : make_case(r.seed, r.reduced),
            false};
  if (r.adaptive) c.adaptive = true;
  return c;
}

RunOutcome RmaWorkload::run(const RmaCase& c, std::uint64_t perturb,
                            std::size_t prefix) {
  if (prefix >= c.ops.size()) return run_case(c, perturb, c.flip_binding);
  FuzzCase t = c;
  t.ops.resize(prefix);
  return run_case(t, perturb, c.flip_binding);
}

std::span<const Check<RmaWorkload>> RmaWorkload::checks() {
  // Racy cases (planted races) judge only analyzer coverage: racing writes
  // legitimately diverge the oracle and the final contents.
  static constexpr Check<RmaWorkload> kChecks[] = {
      {"oracle-divergence",
       [](const RmaCase& c, std::size_t, const RunOutcome& o) {
         return c.planted.empty() && !o.oracle_clean();
       },
       nullptr},
      // The clean generator promises every case race-free, so any analyzer
      // conflict is a false positive.
      {"race-conflict",
       [](const RmaCase& c, std::size_t, const RunOutcome& o) {
         return c.planted.empty() && !o.races_clean();
       },
       nullptr},
      // Every planted pair whose two ops survive the cut must be flagged.
      {"race-miss",
       [](const RmaCase& c, std::size_t prefix, const RunOutcome& o) {
         const auto n = static_cast<int>(std::min(prefix, c.ops.size()));
         for (const FuzzCase::PlantedRace& pr : c.planted) {
           if (pr.op_a < n && pr.op_b < n && !planted_flagged(o, pr)) {
             return true;
           }
         }
         return false;
       },
       nullptr},
      {"schedule-divergence", nullptr,
       [](const RmaCase& c, const RunOutcome& o, const RunOutcome& ref) {
         return !c.order_sensitive && o.content_hash != ref.content_hash;
       }},
  };
  return kChecks;
}

std::span<const PlantedBug<RmaWorkload>> RmaWorkload::bugs() {
  static constexpr PlantedBug<RmaWorkload> kBugs[] = {
      // The flip only has a surface when segment binding spreads one target
      // over >= 2 ghosts. Adaptive cases stay out of the candidate set, which
      // keeps the seeds the proof has always picked.
      {"flip-binding", 500,
       [](const RmaCase& c) {
         return c.binding == core::Binding::Segment && c.ghosts >= 2 &&
                !c.adaptive;
       },
       [](RmaCase& c) { c.flip_binding = true; }, nullptr},
  };
  return kBugs;
}

void RmaWorkload::write_case(std::FILE* f, const RmaCase& fc,
                             std::size_t nops) {
  write_deployment(f, fc, /*with_mode=*/false);
  std::fprintf(
      f,
      " epoch=%s rounds=%d mid_flush=%d pscw_nocheck=%d hint_exact=%d "
      "acc_dt=%s acc_op=%s order_sensitive=%d slot_bytes=%zu adaptive=%d\n",
      to_string(fc.epoch), fc.rounds, fc.mid_flush ? 1 : 0,
      fc.pscw_nocheck ? 1 : 0, fc.hint_exact ? 1 : 0, to_string(fc.acc_dt),
      to_string(fc.acc_op), fc.order_sensitive ? 1 : 0, fc.slot_bytes,
      fc.adaptive ? 1 : 0);
  for (std::size_t i = 0; i < nops; ++i) {
    const OpRec& op = fc.ops[i];
    std::fprintf(f,
                 "op %zu kind=%s aop=%s origin=%d target=%d round=%d "
                 "disp=%zu count=%d dt=%s blocklen=%d stride=%d val=%lld "
                 "local=%d\n",
                 i, kind_name(op.kind), to_string(op.aop), op.origin,
                 op.target, op.round, op.disp, op.count, to_string(op.tdt.base),
                 op.tdt.blocklen, op.tdt.stride,
                 static_cast<long long>(op.val), op.local ? 1 : 0);
  }
  for (const FuzzCase::PlantedRace& pr : fc.planted) {
    std::fprintf(f,
                 "planted origin_a=%d origin_b=%d target=%d lo=%zu hi=%zu "
                 "op_a=%d op_b=%d\n",
                 pr.origin_a, pr.origin_b, pr.target, pr.lo, pr.hi, pr.op_a,
                 pr.op_b);
  }
}

void RmaWorkload::write_diags(std::FILE* f, const RunOutcome& out) {
  for (const std::string& d : out.race_diags) put_lines(f, "race", d);
  for (const Divergence& d : out.divergences) {
    std::fprintf(f,
                 "divergence t=%.3fus where=\"%s\" win=%d span_off=%zu "
                 "real=0x%02x shadow=0x%02x nbytes=%zu\n",
                 sim::to_us(d.t), d.where.c_str(), d.win_id, d.span_off,
                 d.real, d.shadow, d.nbytes);
  }
  std::fprintf(f, "violations %" PRIu64 "\n", out.atomicity_violations);
  // Schedule-trace prefix: enough to show WHERE the failing interleaving
  // departs from the classic one.
  const std::size_t ntr = std::min<std::size_t>(out.trace.size(), 64);
  std::fprintf(f, "sched");
  for (std::size_t i = 0; i < ntr; ++i) {
    std::fprintf(f, " %.3f:%d", sim::to_us(out.trace[i].t),
                 out.trace[i].rank);
  }
  std::fprintf(f, "\n");
  // Obs-trace tail (present when the run had CASPER_TRACE set): the last
  // virtual-time events before the failure, in golden-trace text form.
  for (const std::string& line : out.trace_tail) put_lines(f, "trace", line);
}

}  // namespace casper::check
