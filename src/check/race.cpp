#include "check/race.hpp"

#include <algorithm>
#include <cstdio>

#include "mpi/am.hpp"
#include "mpi/check.hpp"
#include "mpi/win.hpp"
#include "sim/hash.hpp"

namespace casper::check {

const char* to_string(AccessKind k) {
  switch (k) {
    case AccessKind::LocalLoad: return "local-load";
    case AccessKind::LocalStore: return "local-store";
    case AccessKind::Put: return "put";
    case AccessKind::Get: return "get";
    case AccessKind::Acc: return "acc";
    case AccessKind::GetAcc: return "get_acc";
    case AccessKind::Fao: return "fao";
    case AccessKind::Cas: return "cas";
  }
  return "?";
}

const char* to_string(EpochStyle s) {
  switch (s) {
    case EpochStyle::Fence: return "fence";
    case EpochStyle::Pscw: return "pscw";
    case EpochStyle::Lock: return "lock";
    case EpochStyle::LockAll: return "lockall";
  }
  return "?";
}

const char* to_string(mpi::AccOp op) {
  switch (op) {
    case mpi::AccOp::Replace: return "replace";
    case mpi::AccOp::Sum: return "sum";
    case mpi::AccOp::Min: return "min";
    case mpi::AccOp::Max: return "max";
    case mpi::AccOp::NoOp: return "no_op";
  }
  return "?";
}

const char* to_string(mpi::Dt dt) {
  switch (dt) {
    case mpi::Dt::Byte: return "byte";
    case mpi::Dt::Int: return "int";
    case mpi::Dt::Double: return "double";
  }
  return "?";
}

// ---- IntervalTree ----------------------------------------------------------

std::uint64_t IntervalTree::priority(const Access& a) {
  // A pure function of the entry: the treap's heap order — and therefore its
  // shape — depends only on the stored SET, never on insertion order. That is
  // what makes sharded / perturbed runs traverse entries identically.
  std::uint64_t h = sim::splitmix64(static_cast<std::uint64_t>(a.lo));
  h = sim::splitmix64(h ^ static_cast<std::uint64_t>(a.origin));
  h = sim::splitmix64(h ^ a.seq);
  return h | 1;  // never zero
}

bool IntervalTree::key_less(int n, std::size_t lo, std::uint64_t prio) const {
  const Node& nd = nodes_[static_cast<std::size_t>(n)];
  if (nd.a.lo != lo) return nd.a.lo < lo;
  return nd.prio < prio;
}

void IntervalTree::pull(int n) {
  Node& nd = nodes_[static_cast<std::size_t>(n)];
  nd.max_hi = nd.a.hi;
  if (nd.l >= 0)
    nd.max_hi = std::max(nd.max_hi, nodes_[static_cast<std::size_t>(nd.l)].max_hi);
  if (nd.r >= 0)
    nd.max_hi = std::max(nd.max_hi, nodes_[static_cast<std::size_t>(nd.r)].max_hi);
}

int IntervalTree::insert_node(int t, int n) {
  if (t < 0) {
    pull(n);
    return n;
  }
  Node& tn = nodes_[static_cast<std::size_t>(t)];
  const Node& nn = nodes_[static_cast<std::size_t>(n)];
  if (nn.prio > tn.prio) {
    // Rotate n above t: split t's subtree around n's key.
    int l = -1, r = -1;
    split(t, nn.a.lo, nn.prio, l, r);
    Node& nd = nodes_[static_cast<std::size_t>(n)];
    nd.l = l;
    nd.r = r;
    pull(n);
    return n;
  }
  if (key_less(n, tn.a.lo, tn.prio)) {
    tn.l = insert_node(tn.l, n);
  } else {
    tn.r = insert_node(tn.r, n);
  }
  pull(t);
  return t;
}

void IntervalTree::split(int t, std::size_t lo, std::uint64_t prio, int& l,
                         int& r) {
  if (t < 0) {
    l = r = -1;
    return;
  }
  Node& tn = nodes_[static_cast<std::size_t>(t)];
  if (key_less(t, lo, prio)) {
    split(tn.r, lo, prio, tn.r, r);
    l = t;
  } else {
    split(tn.l, lo, prio, l, tn.l);
    r = t;
  }
  pull(t);
}

int IntervalTree::merge_nodes(int a, int b) {
  if (a < 0) return b;
  if (b < 0) return a;
  Node& an = nodes_[static_cast<std::size_t>(a)];
  Node& bn = nodes_[static_cast<std::size_t>(b)];
  if (an.prio > bn.prio) {
    an.r = merge_nodes(an.r, b);
    pull(a);
    return a;
  }
  bn.l = merge_nodes(a, bn.l);
  pull(b);
  return b;
}

int IntervalTree::erase_node(int t, std::size_t lo, std::uint64_t prio) {
  if (t < 0) return -1;
  Node& tn = nodes_[static_cast<std::size_t>(t)];
  if (tn.a.lo == lo && tn.prio == prio) {
    const int sub = merge_nodes(tn.l, tn.r);
    free_.push_back(t);
    --size_;
    return sub;
  }
  if (key_less(t, lo, prio)) {
    tn.r = erase_node(tn.r, lo, prio);
  } else {
    tn.l = erase_node(tn.l, lo, prio);
  }
  pull(t);
  return t;
}

void IntervalTree::insert(const Access& a) {
  int n;
  if (!free_.empty()) {
    n = free_.back();
    free_.pop_back();
    nodes_[static_cast<std::size_t>(n)] = Node{};
  } else {
    n = static_cast<int>(nodes_.size());
    nodes_.emplace_back();
  }
  Node& nd = nodes_[static_cast<std::size_t>(n)];
  nd.a = a;
  nd.prio = priority(a);
  nd.max_hi = a.hi;
  root_ = insert_node(root_, n);
  ++size_;
}

bool IntervalTree::coalesce(const Access& a) {
  // Look for an identical-identity entry overlapping or adjacent to [lo, hi);
  // widen the probe by one byte on each side to catch adjacency.
  const std::size_t qlo = a.lo == 0 ? 0 : a.lo - 1;
  const Access* hit = nullptr;
  query(qlo, a.hi + 1, [&](const Access& e) {
    if (hit != nullptr) return;
    if (e.origin == a.origin && e.epoch == a.epoch && e.kind == a.kind &&
        e.op == a.op && e.dt == a.dt && e.flush_gen == a.flush_gen)
      hit = &e;
  });
  if (hit == nullptr) return false;
  Access merged = *hit;
  root_ = erase_node(root_, merged.lo, priority(merged));
  merged.lo = std::min(merged.lo, a.lo);
  merged.hi = std::max(merged.hi, a.hi);
  merged.seq = std::min(merged.seq, a.seq);
  merged.t = std::min(merged.t, a.t);
  // The widened range may now touch further identical-identity entries;
  // absorb them too so the stored set is canonical (insertion-order free).
  if (!coalesce(merged)) insert(merged);
  return true;
}

void IntervalTree::clear() {
  nodes_.clear();
  free_.clear();
  root_ = -1;
  size_ = 0;
}

// ---- RaceAnalyzer ----------------------------------------------------------

void RaceAnalyzer::on_win_register(mpi::WinImpl& win) {
  std::lock_guard<std::mutex> g(mu_);
  WinState& ws = wins_[win.id()];
  ws.nranks = win.comm()->size();
}

void RaceAnalyzer::on_win_free(mpi::WinImpl& win) {
  std::lock_guard<std::mutex> g(mu_);
  wins_.erase(win.id());
}

std::uint64_t RaceAnalyzer::cur_flush_gen(const OriginState& os,
                                          int target) const {
  const auto it = os.flush_gen.find(target);
  return os.flush_all_gen + (it == os.flush_gen.end() ? 0 : it->second);
}

int RaceAnalyzer::current_epoch(const OriginState& os, int target) const {
  // Origin-side epoch precedence: a per-target lock epoch scopes accesses to
  // that target; otherwise whichever global-style epoch is open. The runtime
  // already forbids mixing styles, so at most one of these is open.
  const auto it = os.lock_epochs.find(target);
  if (it != os.lock_epochs.end()) return it->second;
  if (os.lockall_epoch >= 0) return os.lockall_epoch;
  if (os.pscw_epoch >= 0) return os.pscw_epoch;
  if (os.fence_epoch >= 0) return os.fence_epoch;
  return -1;
}

bool RaceAnalyzer::concurrent(const WinState& ws, const Access& a,
                              const Access& b) const {
  if (a.origin == b.origin)
    return a.epoch == b.epoch && a.flush_gen == b.flush_gen;
  const EpochRec& ea = ws.epochs[static_cast<std::size_t>(a.epoch)];
  const EpochRec& eb = ws.epochs[static_cast<std::size_t>(b.epoch)];
  // Collective styles: same generation = the same program-level epoch,
  // whatever the per-rank call-return times were. Different generations are
  // separated by the collective sync, hence ordered.
  if (ea.style == EpochStyle::Fence && eb.style == EpochStyle::Fence)
    return ea.gen == eb.gen;
  if (ea.style == EpochStyle::Pscw && eb.style == EpochStyle::Pscw)
    return ea.gen == eb.gen;
  // Two passive epochs where at least one holds an exclusive per-target lock
  // are serialized by the target's lock manager: delayed acquisition makes
  // the call-time intervals overlap even though the critical sections never
  // do.
  const bool ap = ea.style == EpochStyle::Lock || ea.style == EpochStyle::LockAll;
  const bool bp = eb.style == EpochStyle::Lock || eb.style == EpochStyle::LockAll;
  if (ap && bp && (ea.exclusive || eb.exclusive)) return false;
  // Everything else: genuine virtual-time overlap of [open, close). Open
  // epochs extend to +inf — exact, because the open epoch provably reaches
  // past `now`, the time of the access being tested.
  return ea.open_t < eb.close_t && eb.open_t < ea.close_t;
}

bool RaceAnalyzer::legal(const Access& a, const Access& b) const {
  if (access_is_read(a.kind) && access_is_read(b.kind)) return true;
  if (a.origin == b.origin) {
    // Same epoch + flush generation (concurrent() filtered the rest): RMA is
    // unordered against itself within an epoch, EXCEPT accumulate-class ops
    // (ordered per MPI-3 accumulate ordering) and local-local (single
    // thread, program order).
    if (access_is_acc(a.kind) && access_is_acc(b.kind)) return true;
    if (access_is_local(a.kind) && access_is_local(b.kind)) return true;
    return false;
  }
  if (access_is_acc(a.kind) && access_is_acc(b.kind)) {
    if (a.dt != b.dt) return false;
    if (opt_.strict_same_op) {
      const bool a_cas = a.kind == AccessKind::Cas;
      const bool b_cas = b.kind == AccessKind::Cas;
      return a.op == b.op && a_cas == b_cas;
    }
    return true;
  }
  return false;
}

std::size_t RaceAnalyzer::union_insert(
    std::vector<std::pair<std::size_t, std::size_t>>& iv, std::size_t lo,
    std::size_t hi) {
  if (lo >= hi) return 0;
  const std::size_t lo0 = lo, hi0 = hi;
  std::size_t already = 0;  // bytes of [lo0, hi0) an existing interval covers
  auto it = std::lower_bound(
      iv.begin(), iv.end(), lo,
      [](const auto& r, std::size_t v) { return r.second < v; });
  while (it != iv.end() && it->first <= hi) {
    const std::size_t olo = std::max(it->first, lo0);
    const std::size_t ohi = std::min(it->second, hi0);
    if (ohi > olo) already += ohi - olo;  // absorbed intervals are disjoint
    lo = std::min(lo, it->first);
    hi = std::max(hi, it->second);
    it = iv.erase(it);
  }
  iv.insert(it, {lo, hi});
  return (hi0 - lo0) - already;
}

void RaceAnalyzer::report(WinState& ws, int win_id, int target,
                          const Access& a, const Access& b, sim::Time t_now) {
  const std::size_t olo = std::max(a.lo, b.lo);
  const std::size_t ohi = std::min(a.hi, b.hi);
  ++conflict_events_;

  GroupKey key{win_id, target, std::min(a.origin, b.origin),
               std::max(a.origin, b.origin)};
  const bool new_pair = groups_.find(key) == groups_.end();
  const std::size_t fresh = union_insert(groups_[key], olo, ohi);
  if (obs::on(rec_)) {
    // Only order-invariant quantities become counters: pair count and union
    // bytes reach the same totals under every schedule and shard count (raw
    // event counts would not, because coalescing merges entries differently
    // depending on arrival order).
    obs::Metrics& m = rec_->metrics();
    if (new_pair) ++m.counter("race.conflict_pairs");
    m.counter("race.conflict_bytes") += fresh;
  }

  const EpochRec& ea = ws.epochs[static_cast<std::size_t>(a.epoch)];
  const EpochRec& eb = ws.epochs[static_cast<std::size_t>(b.epoch)];

  if (conflicts_.size() < opt_.max_recorded) {
    RaceConflict c;
    c.win_id = win_id;
    c.target = target;
    c.lo = olo;
    c.hi = ohi;
    c.a = {a, ea.style, ea.gen, ea.open_t};
    c.b = {b, eb.style, eb.gen, eb.open_t};
    c.t_detect = t_now;
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "win %d target %d bytes [%zu,%zu): %s", win_id, target, olo, ohi,
        to_string(a.kind));
    c.diag = buf;
    std::snprintf(
        buf, sizeof(buf),
        "(%s,%s) by origin %d [%zu,%zu) seq %llu t=%lld (%s#%llu open@%lld)",
        to_string(a.op), to_string(a.dt), a.origin, a.lo, a.hi,
        static_cast<unsigned long long>(a.seq),
        static_cast<long long>(a.t), to_string(ea.style),
        static_cast<unsigned long long>(ea.gen),
        static_cast<long long>(ea.open_t));
    c.diag += buf;
    c.diag += " vs ";
    c.diag += to_string(b.kind);
    std::snprintf(
        buf, sizeof(buf),
        "(%s,%s) by origin %d [%zu,%zu) seq %llu t=%lld (%s#%llu open@%lld)",
        to_string(b.op), to_string(b.dt), b.origin, b.lo, b.hi,
        static_cast<unsigned long long>(b.seq),
        static_cast<long long>(b.t), to_string(eb.style),
        static_cast<unsigned long long>(eb.gen),
        static_cast<long long>(eb.open_t));
    c.diag += buf;
    if (obs::on(rec_) && opt_.tail_lines > 0)
      c.trace_tail = rec_->trace().tail_text(opt_.tail_lines);
    conflicts_.push_back(std::move(c));
  }

  if (obs::on(rec_)) {
    rec_->trace().instant(b.origin, obs::Ev::RaceConflict, t_now,
                          static_cast<std::uint64_t>(a.origin),
                          static_cast<std::uint64_t>(win_id),
                          static_cast<std::uint64_t>(ohi - olo));
  }
}

void RaceAnalyzer::record_access(mpi::WinImpl& win, int origin_world,
                                 int target_comm, AccessKind kind,
                                 mpi::AccOp op, mpi::Dt dt, std::size_t lo,
                                 std::size_t hi, sim::Time t) {
  if (lo >= hi) return;
  WinState& ws = wins_[win.id()];
  if (ws.nranks == 0) ws.nranks = win.comm()->size();
  OriginState& os = ws.origins[origin_world];
  const int ep = current_epoch(os, target_comm);
  if (ep < 0) {
    ++unscoped_;
    return;  // no open epoch: nothing to scope the access to
  }
  Access a;
  a.lo = lo;
  a.hi = hi;
  a.origin = origin_world;
  a.seq = os.next_seq++;
  a.kind = kind;
  a.op = op;
  a.dt = dt;
  a.flush_gen = cur_flush_gen(os, target_comm);
  a.epoch = ep;
  a.t = t;

  IntervalTree& tree = ws.trees[target_comm];
  tree.query(lo, hi, [&](const Access& e) {
    if (!concurrent(ws, e, a)) return;
    if (legal(e, a)) return;
    report(ws, win.id(), target_comm, e, a, t);
  });
  if (!tree.coalesce(a)) tree.insert(a);
}

void RaceAnalyzer::on_op_issue(const mpi::AmOp& op, sim::Time t) {
  using mpi::OpKind;
  AccessKind kind = AccessKind::Put;
  switch (op.kind) {
    case OpKind::Put: kind = AccessKind::Put; break;
    case OpKind::Get: kind = AccessKind::Get; break;
    case OpKind::Acc: kind = AccessKind::Acc; break;
    case OpKind::GetAcc: kind = AccessKind::GetAcc; break;
    case OpKind::Fao: kind = AccessKind::Fao; break;
    case OpKind::Cas: kind = AccessKind::Cas; break;
    case OpKind::LockReq:
    case OpKind::LockRelease:
      return;  // protocol traffic, not a data access
  }
  MMPI_REQUIRE(op.win != nullptr, "race: op issue without window");
  std::lock_guard<std::mutex> g(mu_);
  ++accesses_;
  if (obs::on(rec_)) ++rec_->metrics().counter("race.accesses");
  // One entry per contiguous block: a strided datatype's gaps are NOT
  // accessed and must not collide with a neighbor writing the gaps.
  const mpi::Datatype& dt = op.target_dt;
  const std::size_t bl = static_cast<std::size_t>(dt.blocklen) * dt.elem_size();
  const std::size_t st = static_cast<std::size_t>(dt.stride) * dt.elem_size();
  const int nblocks = dt.contiguous() ? 1 : op.target_count;
  const std::size_t total = dt.contiguous()
                                ? mpi::data_bytes(op.target_count, dt)
                                : bl;
  for (int i = 0; i < nblocks; ++i) {
    const std::size_t lo = op.target_disp + static_cast<std::size_t>(i) * st;
    record_access(*op.win, op.origin_world, op.target_comm_rank, kind, op.op,
                  dt.base, lo, lo + (dt.contiguous() ? total : bl), t);
  }
}

void RaceAnalyzer::on_local_access(mpi::WinImpl& win, int comm_rank,
                                   std::size_t offset, std::size_t len,
                                   bool is_store, sim::Time t) {
  std::lock_guard<std::mutex> g(mu_);
  ++accesses_;
  if (obs::on(rec_)) ++rec_->metrics().counter("race.accesses");
  record_access(win, win.comm()->world_rank(comm_rank), comm_rank,
                is_store ? AccessKind::LocalStore : AccessKind::LocalLoad,
                mpi::AccOp::Replace, mpi::Dt::Byte, offset, offset + len, t);
}

void RaceAnalyzer::on_epoch_begin(mpi::WinImpl& win, int world_rank,
                                  mpi::EpochEv kind, int target, sim::Time t) {
  std::lock_guard<std::mutex> g(mu_);
  WinState& ws = wins_[win.id()];
  if (ws.nranks == 0) ws.nranks = win.comm()->size();
  OriginState& os = ws.origins[world_rank];

  EpochStyle style = EpochStyle::Fence;
  bool excl = false;
  int* slot = nullptr;
  switch (kind) {
    case mpi::EpochEv::Fence:
      style = EpochStyle::Fence;
      slot = &os.fence_epoch;
      break;
    case mpi::EpochEv::Start:
      style = EpochStyle::Pscw;
      slot = &os.pscw_epoch;
      break;
    case mpi::EpochEv::LockExcl:
      excl = true;
      [[fallthrough]];
    case mpi::EpochEv::Lock:
      style = EpochStyle::Lock;
      slot = &os.lock_epochs.try_emplace(target, -1).first->second;
      break;
    case mpi::EpochEv::LockAll:
      style = EpochStyle::LockAll;
      slot = &os.lockall_epoch;
      break;
  }
  // Casper's layer both reports the user-facing epoch itself AND (for the
  // lock style) natively locks the user window for load/store access, which
  // reports a second begin for the same program epoch. Opening an
  // already-open epoch of the same style is therefore an idempotent no-op.
  if (*slot >= 0 &&
      ws.epochs[static_cast<std::size_t>(*slot)].open())
    return;

  EpochRec er;
  er.style = style;
  er.exclusive = excl;
  er.target = style == EpochStyle::Lock ? target : -1;
  if (style == EpochStyle::Fence) er.gen = os.fence_gen++;
  if (style == EpochStyle::Pscw) er.gen = os.pscw_gen++;
  er.open_t = t;
  *slot = static_cast<int>(ws.epochs.size());
  ws.epochs.push_back(er);
  ++epochs_opened_;
  if (obs::on(rec_)) ++rec_->metrics().counter("race.epochs");
}

void RaceAnalyzer::close_epoch(WinState& ws, int& slot, sim::Time t) {
  if (slot < 0) return;
  EpochRec& er = ws.epochs[static_cast<std::size_t>(slot)];
  if (er.open()) er.close_t = t;
  slot = -1;
}

void RaceAnalyzer::on_sync(mpi::WinImpl& win, int world_rank,
                           mpi::SyncKind kind, int target, sim::Time t) {
  std::lock_guard<std::mutex> g(mu_);
  auto wit = wins_.find(win.id());
  if (wit == wins_.end()) return;
  WinState& ws = wit->second;
  auto oit = ws.origins.find(world_rank);
  if (oit == ws.origins.end()) return;
  OriginState& os = oit->second;

  switch (kind) {
    case mpi::SyncKind::Fence:
      close_epoch(ws, os.fence_epoch, t);
      break;
    case mpi::SyncKind::Complete:
      close_epoch(ws, os.pscw_epoch, t);
      break;
    case mpi::SyncKind::Wait:
      break;  // exposure side; access epochs close at complete
    case mpi::SyncKind::Unlock: {
      auto it = os.lock_epochs.find(target);
      if (it != os.lock_epochs.end()) {
        close_epoch(ws, it->second, t);
        os.lock_epochs.erase(it);
      }
      break;
    }
    case mpi::SyncKind::UnlockAll:
      close_epoch(ws, os.lockall_epoch, t);
      break;
    case mpi::SyncKind::Flush:
      ++os.flush_gen[target];
      break;
    case mpi::SyncKind::FlushAll:
      ++os.flush_all_gen;
      break;
  }
  if (target >= 0) {
    maybe_prune(ws, target, t);
  } else {
    for (auto& [tgt, tree] : ws.trees) {
      (void)tree;
      maybe_prune(ws, tgt, t);
    }
  }
}

void RaceAnalyzer::maybe_prune(WinState& ws, int target, sim::Time t) {
  auto it = ws.trees.find(target);
  if (it == ws.trees.end() || it->second.size() < opt_.prune_threshold)
    return;
  // An entry can be dropped once NO future access can be concurrent with it:
  //   * collective styles match by generation — keep entries whose gen could
  //     still be seen by a lagging origin, i.e. >= the minimum generation any
  //     origin could still open (origins never seen count as generation 0);
  //   * passive entries use virtual-time overlap — closed epochs strictly in
  //     the past cannot overlap an epoch opened at or after `t`.
  std::uint64_t min_fence = 0, min_pscw = 0;
  if (static_cast<int>(ws.origins.size()) >= ws.nranks) {
    min_fence = min_pscw = ~std::uint64_t{0};
    for (const auto& [r, os] : ws.origins) {
      (void)r;
      const std::uint64_t nf =
          os.fence_epoch >= 0
              ? ws.epochs[static_cast<std::size_t>(os.fence_epoch)].gen
              : os.fence_gen;
      const std::uint64_t np =
          os.pscw_epoch >= 0
              ? ws.epochs[static_cast<std::size_t>(os.pscw_epoch)].gen
              : os.pscw_gen;
      min_fence = std::min(min_fence, nf);
      min_pscw = std::min(min_pscw, np);
    }
  }
  // Slack absorbs the sharded engine's bounded cross-shard time skew: an
  // event from another host worker may still arrive slightly in `t`'s past.
  constexpr sim::Time kPruneSlack = 1'000'000;  // 1 ms of virtual time
  it->second.prune([&](const Access& a) {
    const EpochRec& er = ws.epochs[static_cast<std::size_t>(a.epoch)];
    switch (er.style) {
      case EpochStyle::Fence: return er.gen >= min_fence;
      case EpochStyle::Pscw: return er.gen >= min_pscw;
      case EpochStyle::Lock:
      case EpochStyle::LockAll:
        return er.open() || er.close_t + kPruneSlack >= t;
    }
    return true;
  });
}

std::vector<RaceAnalyzer::Group> RaceAnalyzer::groups() const {
  std::lock_guard<std::mutex> g(mu_);
  std::vector<Group> out;
  out.reserve(groups_.size());
  for (const auto& [k, iv] : groups_) {
    Group grp;
    grp.win_id = k.win_id;
    grp.target = k.target;
    grp.origin_a = k.origin_a;
    grp.origin_b = k.origin_b;
    grp.ranges = iv;
    out.push_back(std::move(grp));
  }
  return out;
}

bool RaceAnalyzer::flags(int win_id, int target, int origin_a, int origin_b,
                         std::size_t lo, std::size_t hi) const {
  std::lock_guard<std::mutex> g(mu_);
  GroupKey key{win_id, target, std::min(origin_a, origin_b),
               std::max(origin_a, origin_b)};
  auto it = groups_.find(key);
  if (it == groups_.end()) return false;
  for (const auto& [rlo, rhi] : it->second)
    if (rlo < hi && rhi > lo) return true;
  return false;
}

std::uint64_t RaceAnalyzer::conflict_pairs() const {
  std::lock_guard<std::mutex> g(mu_);
  return groups_.size();
}

std::uint64_t RaceAnalyzer::conflict_bytes() const {
  std::lock_guard<std::mutex> g(mu_);
  std::uint64_t n = 0;
  for (const auto& [k, iv] : groups_) {
    (void)k;
    for (const auto& [lo, hi] : iv) n += hi - lo;
  }
  return n;
}

void RaceAnalyzer::reset() {
  std::lock_guard<std::mutex> g(mu_);
  wins_.clear();
  groups_.clear();
  conflicts_.clear();
  conflict_events_ = 0;
  accesses_ = 0;
  epochs_opened_ = 0;
  unscoped_ = 0;
}

}  // namespace casper::check
