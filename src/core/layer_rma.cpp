// CasperLayer: RMA operation redirection (rank / segment / dynamic binding)
// and epoch translation (fence, PSCW, lock, lockall) — paper Sections II.C
// and III.
#include <algorithm>

#include "core/layer_impl.hpp"
#include "mpi/check.hpp"
#include "mpi/datatype.hpp"

namespace casper::core {

using mpi::accumulate_class;
using mpi::Datatype;
using mpi::Env;
using mpi::OpKind;
using mpi::Win;

namespace {
/// Per-op translation overhead added by Casper's wrapper (rank + offset
/// translation, binding decision).
constexpr sim::Time kTranslateCost = sim::ns(60);

/// Membership test on a per-rank bitmask (the access-group mirror kept in
/// OriginEp::access_mask); replaces a linear scan of the group vector on the
/// per-op epoch check.
bool mask_test(const std::vector<std::uint64_t>& mask, int x) {
  return (mask[static_cast<std::size_t>(x) >> 6] >>
          (static_cast<std::size_t>(x) & 63)) &
         1u;
}

void mask_set(std::vector<std::uint64_t>& mask, int x) {
  mask[static_cast<std::size_t>(x) >> 6] |= std::uint64_t{1}
                                            << (static_cast<std::size_t>(x) &
                                                63);
}

const char* lb_name(DynamicLb d) {
  switch (d) {
    case DynamicLb::None: return "none";
    case DynamicLb::Random: return "random";
    case DynamicLb::OpCounting: return "op_counting";
    case DynamicLb::ByteCounting: return "byte_counting";
  }
  return "?";
}

}  // namespace

void CasperLayer::end_sync(Env& env, CspWin& cw, mpi::SyncKind k, int target,
                           sim::Time t0) {
  if (obs::on(rt_->recorder())) {
    obs::Recorder* rec = rt_->recorder();
    const sim::Time dur = env.now() - t0;
    rec->trace().span(env.world_rank(), obs::Ev::EpochTranslate, t0, dur,
                    static_cast<std::uint64_t>(k),
                    static_cast<std::uint64_t>(cw.user_win->id()));
    sync_ns_.get(*rec, static_cast<std::size_t>(k), [k] {
      return std::string("sync_ns.") + mpi::to_string(k);
    }).add(dur);
  }
  // Report the *user-facing* sync on the user window: the oracle validates
  // real window bytes here, after the translated completion.
  rt_->observe_sync(*cw.user_win, env.world_rank(), k, target, env.now());
}

// ------------------------------------------------------------- routing ----

mpi::Win& CasperLayer::route_window(CspWin& cw, int origin, int target) {
  auto& ep = cw.ep[static_cast<std::size_t>(origin)];
  const auto& tl = ep.tl[static_cast<std::size_t>(target)];
  if (tl.locked || (ep.lockall && !cw.ug_wins.empty())) {
    // lock path (or lockall converted to per-ghost locks): use the
    // overlapping window dedicated to this target's local index.
    return cw.ug_wins[static_cast<std::size_t>(
        cw.tgt[static_cast<std::size_t>(target)].local_idx)];
  }
  MMPI_REQUIRE(cw.global_win != nullptr,
               "casper: window was allocated without fence/pscw/lockall in "
               "epochs_used but such an epoch is in use");
  return cw.global_win;
}

int CasperLayer::slot_ghost(int node, int slot, int origin) const {
  const auto& ng = node_ghosts_[static_cast<std::size_t>(node)];
  // Injected fault (tests only): odd origins see a mirrored map, so two
  // ghosts end up serving the same segment concurrently. A *consistent*
  // flip would still be a valid binding; only the origin dependence breaks
  // the one-segment-one-ghost invariant.
  if (cfg_.fault.flip_segment_binding && (origin & 1) != 0) {
    slot = static_cast<int>(ng.size()) - 1 - slot;
  }
  int gw = ng[static_cast<std::size_t>(slot)];
  // Ghost-failure rebinding: a slot whose ghost is dead is served by a
  // survivor instead. The remap is a pure function of global death state, so
  // every origin routes a shared byte to the SAME survivor (accumulate
  // atomicity holds across the rebinding), and the adaptive controller's
  // decisions never read it. With no survivors the original ghost is kept:
  // the runtime completes those deliveries at the NIC.
  const auto& alive = alive_ghosts_[static_cast<std::size_t>(node)];
  if (any_ghost_dead_ && ghost_dead_[static_cast<std::size_t>(gw)] != 0 &&
      !alive.empty()) {
    gw = alive[static_cast<std::size_t>(slot) % alive.size()];
  }
  return gw;
}

void CasperLayer::resolve_static(CspWin& cw, int origin, int target,
                                 std::size_t disp_bytes, int tcount,
                                 const Datatype& tdt,
                                 std::vector<SubOp>& out) {
  const auto& ti = cw.tgt[static_cast<std::size_t>(target)];
  const std::size_t base = ti.offset + disp_bytes;  // node-buffer frame
  // The adaptive controller binds the node's items through the origin's
  // replicated item→slot map (layer_adapt.cpp); statically, item i is slot i.
  // It also charges each routed piece's demand to its item, into the
  // origin's private accumulators.
  const int* map = nullptr;
  std::uint64_t* item_ops = nullptr;
  std::uint64_t* item_bytes = nullptr;
  if (cw.adapt.on) {
    auto& ep = cw.ep[static_cast<std::size_t>(origin)];
    const auto first = static_cast<std::size_t>(
        cw.adapt.nodes[static_cast<std::size_t>(ti.node)].first);
    map = ep.adapt.map.data() + first;
    item_ops = ep.adapt_acc.item_ops.data() + first;
    item_bytes = ep.adapt_acc.item_bytes.data() + first;
  }

  if (cfg_.binding == Binding::Rank) {
    // The static rank binding keeps its own death rebinding (on_ghost_death).
    int gw = ti.bound_ghost;
    if (map != nullptr) {
      const auto item = static_cast<std::size_t>(ti.local_idx);
      gw = slot_ghost(ti.node, map[item], origin);
      ++item_ops[item];
      item_bytes[item] += mpi::data_bytes(tcount, tdt);
    }
    out.push_back(SubOp{gw, base, tcount, tdt, 0});
    return;
  }

  // Segment binding: piece ci of the node's segment table is item ci. Walk
  // the target layout block by block, splitting each contiguous block at
  // piece boundaries, never inside a basic element (boundaries are 16B
  // aligned and displacements element-aligned). A contiguous layout is one
  // block, so resolving costs one step per piece, not per element. All
  // origins share one map at any instant, so any two overlapping
  // accumulates meet at the same ghost for the bytes they share.
  const SegTable& st = cw.seg[static_cast<std::size_t>(ti.node)];
  const std::size_t last = st.count - 1;
  const std::size_t es = tdt.elem_size();
  const bool one_block = tdt.contiguous();
  const int nblocks = one_block ? 1 : tcount;
  const std::size_t block = static_cast<std::size_t>(one_block ? tcount : 1) *
                            static_cast<std::size_t>(tdt.blocklen) * es;
  const std::size_t stride = static_cast<std::size_t>(tdt.stride) * es;
  std::size_t payload_off = 0;
  for (int b = 0; b < nblocks; ++b) {
    std::size_t lo = base + static_cast<std::size_t>(b) * stride;
    std::size_t remaining = block;
    while (remaining > 0) {
      const std::size_t ci = std::min(lo / st.piece, last);
      const std::size_t len =
          ci == last ? remaining
                     : std::min(remaining, (ci + 1) * st.piece - lo);
      MMPI_REQUIRE(len % es == 0 && lo % es == 0,
                   "casper: segment boundary would split a basic element "
                   "(misaligned displacement; see paper III.B.2)");
      int slot = static_cast<int>(ci);
      if (map != nullptr) {
        slot = map[ci];
        ++item_ops[ci];
        item_bytes[ci] += len;
      }
      const int gw = slot_ghost(ti.node, slot, origin);
      // Extend an existing sub-op for the same ghost if contiguous with it.
      if (!out.empty() && out.back().ghost == gw &&
          out.back().tdisp + static_cast<std::size_t>(out.back().tcount) *
                                 out.back().tdt.elem_size() *
                                 static_cast<std::size_t>(
                                     out.back().tdt.blocklen) ==
              lo &&
          out.back().tdt.contiguous() &&
          out.back().payload_off +
                  mpi::data_bytes(out.back().tcount, out.back().tdt) ==
              payload_off) {
        out.back().tcount += static_cast<int>(len / es);
      } else {
        out.push_back(SubOp{gw, lo, static_cast<int>(len / es),
                            mpi::contig(tdt.base), payload_off});
      }
      lo += len;
      payload_off += len;
      remaining -= len;
    }
  }
}

bool CasperLayer::dynamic_applicable(const CspWin& cw, int origin, int target,
                                     OpKind kind) const {
  if (cfg_.dynamic == DynamicLb::None || accumulate_class(kind)) return false;
  const auto& ep = cw.ep[static_cast<std::size_t>(origin)];
  const auto& tl = ep.tl[static_cast<std::size_t>(target)];
  // Dynamic binding is valid for PUT/GET when the epoch is lockall (shared
  // locks everywhere: no exclusive-permission hazard) or inside a
  // static-binding-free interval after a flush under a lock (paper III.B.3).
  return ep.lockall || (tl.locked && tl.binding_free);
}

int CasperLayer::choose_dynamic_ghost(Env& env, CspWin& cw, int origin,
                                      int node) {
  const auto& ng = node_ghosts_[static_cast<std::size_t>(node)];
  auto& ep = cw.ep[static_cast<std::size_t>(origin)];
  switch (effective_lb(cw, ep)) {
    case DynamicLb::Random:
      // Uniform random choice (per-rank deterministic stream). A plain
      // per-origin round-robin would correlate with the target iteration
      // order and can degenerate to a fixed target->ghost mapping.
      return ng[env.ctx().rng().next_below(ng.size())];
    case DynamicLb::OpCounting: {
      int best = ng[0];
      for (int g : ng) {
        if (ep.ops_to_ghost[ghost_slot(g)] <
            ep.ops_to_ghost[ghost_slot(best)]) {
          best = g;
        }
      }
      return best;
    }
    case DynamicLb::ByteCounting: {
      int best = ng[0];
      for (int g : ng) {
        if (ep.bytes_to_ghost[ghost_slot(g)] <
            ep.bytes_to_ghost[ghost_slot(best)]) {
          best = g;
        }
      }
      return best;
    }
    case DynamicLb::None:
      break;
  }
  return ng[0];
}

// ------------------------------------------------------------------ rma ----

void CasperLayer::rma(Env& env, const mpi::RmaArgs& a, const Win& w) {
  MMPI_REQUIRE(a.sizes_match(), "RMA origin/target data size mismatch");
  auto* cwp = managed(w);
  if (cwp == nullptr) {
    // Unmanaged window: forward to the MPI implementation untouched.
    rt_->p_rma(env, a, w);
    return;
  }
  CspWin& cw = *cwp;
  const int me_u = my_user_rank(env);
  const int target = a.target;
  const OpKind kind = a.kind;
  MMPI_REQUIRE(target >= 0 && target < static_cast<int>(cw.tgt.size()),
               "casper: bad target %d", target);
  auto& ep = cw.ep[static_cast<std::size_t>(me_u)];
  auto& ti = cw.tgt[static_cast<std::size_t>(target)];

  const bool in_epoch = ep.fence_open || ep.lockall ||
                        ep.tl[static_cast<std::size_t>(target)].locked ||
                        mask_test(ep.access_mask, target);
  MMPI_REQUIRE(in_epoch, "casper: RMA op outside any epoch (%d->%d)", me_u,
               target);

  const std::size_t disp_bytes = a.tdisp * ti.disp_unit;
  MMPI_REQUIRE(disp_bytes + mpi::span_bytes(a.tcount, a.tdt) <= ti.size,
               "casper: RMA out of target bounds");

  // The translation reads only this origin's epoch state and the static
  // binding, so it is charged and the op's injection pays it; routing around
  // faults reads shared fault state, so that path pays it first.
  if (fault_recovery_ || any_ghost_dead_) {
    env.ctx().advance(kTranslateCost);
  } else {
    rt_->charge(env, kTranslateCost);
  }

  // Self ops: PUT/GET execute as direct load/store (never delayed, paper
  // III.D). Accumulate-class self ops must NOT bypass the ghost: they would
  // race with the ghost's read-modify-writes of the same location on behalf
  // of other origins, breaking MPI's accumulate atomicity. They are
  // redirected like any other op, so the bound ghost serializes them.
  if (target == me_u && !accumulate_class(kind)) {
    exec_self(env, a, disp_bytes, cw);
    return;
  }

  // Graceful degradation: when every ghost on the target's node is dead,
  // fall back to original-MPI semantics — issue directly against the user
  // window (no redirection). Lock epochs switch immediately (the user-window
  // lock is taken lazily below); fence epochs switch only once the fence
  // latch proves ALL ranks observed the death before this epoch opened, so
  // origins never split one epoch across two serialization domains.
  if (fault_recovery_ && node_degraded_[static_cast<std::size_t>(ti.node)]) {
    const auto& tl = ep.tl[static_cast<std::size_t>(target)];
    if (tl.locked || ep.lockall ||
        (ep.fence_open && fence_direct(cw, ti.node))) {
      issue_degraded(env, cw, ep, a);
      return;
    }
  }

  // Adaptive remap guard: an accumulate-class op is serialized by one ghost
  // per byte; until a flush/unlock/fence remotely completes it, moving its
  // bytes to another ghost would let two ghosts RMW the same location. The
  // controller reads these levels off the sealed board and vetoes a remap
  // while any is nonzero (layer_adapt.cpp).
  if (cw.adapt.on && accumulate_class(kind)) {
    ++ep.tl[static_cast<std::size_t>(target)].unflushed_acc;
    ++ep.adapt_acc.unflushed_acc;
  }

  // A node with some (not all) ghosts dead routes through survivors; count
  // ops that would have gone to the dead ghost's segment map.
  if (any_ghost_dead_ && stat_rebound_ops_ != nullptr) {
    const auto& av = alive_ghosts_[static_cast<std::size_t>(ti.node)];
    if (!av.empty() &&
        av.size() != node_ghosts_[static_cast<std::size_t>(ti.node)].size()) {
      ++*stat_rebound_ops_;
    }
  }

  mpi::Win& iw = route_window(cw, me_u, target);
  const std::size_t bytes = mpi::data_bytes(a.tcount, a.tdt);

  obs::Recorder* rec = obs::on(rt_->recorder()) ? rt_->recorder() : nullptr;
  const int target_world = user_world_->world_rank(target);

  // --- route resolution: the op becomes ep.subs, one piece per ghost -------
  // Each route keeps its own bookkeeping here; the issue loop below is
  // shared. The pieces stay intact across the loop's p_rma and win_flush
  // calls: only this origin's next rma() rewrites them.
  std::vector<SubOp>& subs = ep.subs;
  subs.clear();
  const bool dynamic = dynamic_applicable(cw, me_u, target, kind);
  if (dynamic) {
    // Dynamic binding: the whole op to one chosen ghost.
    const DynamicLb lb = effective_lb(cw, ep);
    const int ghost = choose_dynamic_ghost(env, cw, me_u, ti.node);
    if (cw.adapt.on) {
      adapt_note(cw, ep, ti, ti.offset + disp_bytes, bytes);
      auto& acc = ep.adapt_acc;
      ++acc.dyn_ops;
      acc.dyn_bytes += bytes;
      acc.dyn_max_bytes = std::max(acc.dyn_max_bytes, bytes);
    }
    if (rec != nullptr) {
      rec->trace().instant(env.world_rank(), obs::Ev::LbDecision, env.now(),
                         static_cast<std::uint64_t>(
                             iw->comm()->world_rank(ghost)),
                         static_cast<std::uint64_t>(lb), bytes);
      ++rec->metrics().counter("casper.dynamic_ops");
      ++lb_ops_.get(*rec, static_cast<std::size_t>(lb), [lb] {
        return std::string("casper.lb.") + lb_name(lb);
      });
    }
    subs.push_back(SubOp{ghost, ti.offset + disp_bytes, a.tcount, a.tdt, 0});
  } else {
    resolve_static(cw, me_u, target, disp_bytes, a.tcount, a.tdt, subs);
    // Accumulate atomicity requires every target byte to be read-modify-
    // written by exactly ONE processing entity, regardless of which op
    // shapes touch it. Segment binding satisfies this because every
    // accumulate-class op is routed (splitting if necessary) along the same
    // byte->segment-owner map: chunk boundaries are 16B aligned, so a split
    // never divides a basic element, and any two overlapping accumulates
    // meet at the same ghost for the bytes they share. FAO/CAS operate on a
    // single aligned basic element and therefore always fit in one segment.
    MMPI_REQUIRE(subs.size() == 1 ||
                     (kind != OpKind::Fao && kind != OpKind::Cas),
                 "casper: single-element op split a segment boundary");
  }

  // A single piece covering the whole op keeps the user's datatypes. A real
  // split (segment binding) packs the origin data once and issues each
  // piece as a contiguous op against its owning ghost; GET_ACCUMULATE splits
  // like GET on the result side: fetched pieces land in `gather` and are
  // reassembled after a flush.
  const bool split = subs.size() != 1 || subs[0].payload_off != 0 ||
                     mpi::data_bytes(subs[0].tcount, subs[0].tdt) != bytes;
  const bool fetches = kind == OpKind::Get || kind == OpKind::GetAcc;
  sim::PoolBuf packed(&rt_->buffer_pool());
  sim::PoolBuf gather(&rt_->buffer_pool());
  if (split) {
    MMPI_REQUIRE(kind == OpKind::Put || kind == OpKind::Get ||
                     kind == OpKind::Acc || kind == OpKind::GetAcc,
                 "casper: split not supported for this op kind");
    if (rec != nullptr) {
      rec->trace().instant(env.world_rank(), obs::Ev::OpSegmentSplit,
                         env.now(), subs.size(),
                         static_cast<std::uint64_t>(kind), bytes);
      ++rec->metrics().counter("casper.binding_split");
    }
    if (kind != OpKind::Get) {
      mpi::pack_into(packed, a.origin_addr, a.ocount, a.odt);
    }
    if (fetches) gather.resize(bytes);
  } else if (!dynamic && rec != nullptr) {
    ++rec->metrics().counter("casper.binding_fastpath");
  }

  // --- issue: one p_rma per piece, against its ghost -----------------------
  for (const SubOp& s : subs) {
    const std::size_t sbytes = mpi::data_bytes(s.tcount, s.tdt);
    ++ep.ops_to_ghost[ghost_slot(s.ghost)];
    ep.bytes_to_ghost[ghost_slot(s.ghost)] += sbytes;
    if (rec != nullptr) {
      // One trace instant + per-ghost totals per piece. Ghost ids are comm
      // ranks of the internal window; metrics key on the ghost's world rank
      // so totals aggregate across windows.
      const int gw = iw->comm()->world_rank(s.ghost);
      rec->trace().instant(env.world_rank(), obs::Ev::OpRedirected,
                         env.now(), static_cast<std::uint64_t>(gw),
                         static_cast<std::uint64_t>(kind), sbytes);
      ++rec->metrics().counter("casper.redirected_ops");
      rec->metrics().histogram("redirect_bytes").add(sbytes);
      auto key = [gw](const char* what) {
        return "ghost." + std::to_string(gw) + what;
      };
      const auto g = static_cast<std::size_t>(gw);
      ++ghost_ops_.get(*rec, g, [&] { return key(".ops"); });
      ghost_bytes_.get(*rec, g, [&] { return key(".bytes"); }) += sbytes;
    }
    // NUMA hint: the ghost processing this op touches the target user's
    // segment; crossing the node's domain interconnect costs extra (what the
    // topology-aware binding avoids).
    rt_->set_next_op_cross_numa(
        env.world_rank(),
        rt_->topo().numa_of(s.ghost) != rt_->topo().numa_of(target_world));
    mpi::RmaArgs piece = a;
    piece.target = s.ghost;
    piece.tdisp = s.tdisp;
    if (split) {
      piece.tcount = s.tcount;
      piece.tdt = s.tdt;
      if (kind != OpKind::Get) {
        piece.origin_addr = packed.data() + s.payload_off;
        piece.ocount = s.tcount;
        piece.odt = s.tdt;
      }
      if (fetches) {
        piece.result_addr = gather.data() + s.payload_off;
        piece.rcount = s.tcount;
        piece.rdt = s.tdt;
      }
    }
    rt_->p_rma(env, piece, iw);
    if (split) {
      ++*stat_split_subops_[shard_idx()];
      if (rec != nullptr) ++rec->metrics().counter("casper.split_subops");
    }
  }
  if (dynamic) ++*stat_dynamic_ops_[shard_idx()];
  if (split && fetches) {
    // The pieces land in `gather` asynchronously; unpacking into the user's
    // (possibly strided) origin buffer must wait for completion. We wait
    // here (a flush on the involved ghosts), trading a little overlap for
    // correctness of the strided reassembly.
    for (const SubOp& s : subs) Pmpi::win_flush(env, s.ghost, iw);
    mpi::unpack(a.result_addr, a.rcount, a.rdt, gather);
  }
}

// ----------------------------------------------------------- self ops ----

void CasperLayer::exec_self(Env& env, const mpi::RmaArgs& a,
                            std::size_t disp_bytes, CspWin& cw) {
  MMPI_REQUIRE(a.kind == OpKind::Put || a.kind == OpKind::Get,
               "casper: self shortcut is for PUT/GET only");
  // Local load/store access (self locks are never delayed). Executed
  // synchronously on my own shared segment.
  env.ctx().advance(sim::ns(80));
  std::byte* taddr =
      cw.user_win->segs[static_cast<std::size_t>(a.target)].base + disp_bytes;
  sim::PoolBuf scratch(&rt_->buffer_pool());
  if (a.kind == OpKind::Put) {
    mpi::pack_into(scratch, a.origin_addr, a.ocount, a.odt);
    mpi::unpack(taddr, a.tcount, a.tdt, scratch);
  } else {
    mpi::pack_into(scratch, taddr, a.tcount, a.tdt);
    mpi::unpack(a.result_addr, a.rcount, a.rdt, scratch);
  }
  ++*stat_self_ops_[shard_idx()];
  if (obs::on(rt_->recorder()))
    ++rt_->recorder()->metrics().counter("casper.self_ops");

  if (rt_->has_observers()) {
    // Self PUT/GET bypass the runtime's AM path entirely (direct load/store
    // above); synthesize the committed op so the shadow oracle sees it.
    mpi::AmOp aop = mpi::observed_op(a, env.world_rank(), *cw.user_win);
    aop.payload.bind(&rt_->buffer_pool());
    if (a.kind == OpKind::Put) {
      mpi::pack_into(aop.payload, a.origin_addr, a.ocount, a.odt);
    }
    rt_->observe_commit(aop, env.now(), env.world_rank());
  }
}

// ------------------------------------------------------ epoch translation --

void CasperLayer::win_fence(Env& env, unsigned mode_assert, const Win& w) {
  auto* cw = managed(w);
  if (cw == nullptr) {
    Pmpi::win_fence(env, mode_assert, w);
    return;
  }
  MMPI_REQUIRE(cw->epochs & kEpochFence,
               "casper: fence used but excluded by epochs_used hint");
  const sim::Time t0 = env.now();
  const int me_u = my_user_rank(env);
  auto& ep = cw->ep[static_cast<std::size_t>(me_u)];

  // Translation (paper III.C.1): the window sits under a permanent lockall;
  // fence = flush_all (remote completion of my ops) + barrier (everyone's
  // ops) + win_sync (memory consistency), each skippable via asserts.
  if (ep.fence_open && !(mode_assert & mpi::kModeNoPrecede)) {
    Pmpi::win_flush_all(env, cw->global_win);
    if (cw->adapt.on) {
      // flush_all remotely completed every op I issued: accumulate-class
      // levels drop to zero, so the controller may remap this round.
      ep.adapt_acc.unflushed_acc = 0;
      for (auto& tl : ep.tl) tl.unflushed_acc = 0;
    }
  }
  const bool skip_sync = (mode_assert & mpi::kModeNoStore) &&
                         (mode_assert & mpi::kModeNoPut) &&
                         (mode_assert & mpi::kModeNoPrecede);
  if (!skip_sync) {
    // Fence is an adaptation point: seal this origin's round counters before
    // the barrier, replay the shared decision after it (layer_adapt.cpp).
    if (cw->adapt.on) adapt_seal(*cw, me_u);
    Pmpi::barrier(env, user_world_);
    Pmpi::win_sync(env, cw->global_win);
    if (cw->adapt.on) adapt_decide(env, *cw, me_u);
  }

  // Ghost-failure degradation latch: a fence epoch may switch a node to
  // direct (user-window) RMA only when EVERY rank agrees the deaths happened
  // before this epoch — otherwise one origin redirects while another goes
  // direct within the same epoch and completion splits. Latch the *minimum*
  // death sequence number all ranks have observed; a node is fence-direct
  // once all its ghosts' deaths are at or below the latch. Once any node
  // goes direct, the user window itself needs fence semantics, so we open
  // (and keep running) a real fence on it.
  if (fault_recovery_) {
    int local = static_cast<int>(death_seq_);
    int latched = local;
    Pmpi::allreduce(env, &local, &latched, 1, mpi::Dt::Int, mpi::AccOp::Min,
                    user_world_);
    cw->fence_latch = static_cast<std::uint64_t>(latched);
    bool any_direct = cw->fence_user_open;
    for (int n = 0; n < static_cast<int>(node_ghosts_.size()) && !any_direct;
         ++n) {
      if (node_degraded_[static_cast<std::size_t>(n)] &&
          fence_direct(*cw, n)) {
        any_direct = true;
      }
    }
    if (any_direct) {
      cw->fence_user_open = true;
      Pmpi::win_fence(env, 0, cw->user_win);
    }
  }

  ep.fence_open = !(mode_assert & mpi::kModeNoSucceed);
  end_sync(env, *cw, mpi::SyncKind::Fence, -1, t0);
  if (ep.fence_open) {
    rt_->observe_epoch_begin(*cw->user_win, env.world_rank(),
                             mpi::EpochEv::Fence, -1, env.now());
  }
}

void CasperLayer::win_post(Env& env, const mpi::Group& g, unsigned mode_assert,
                           const Win& w) {
  auto* cw = managed(w);
  if (cw == nullptr) {
    Pmpi::win_post(env, g, mode_assert, w);
    return;
  }
  MMPI_REQUIRE(cw->epochs & kEpochPscw,
               "casper: pscw used but excluded by epochs_used hint");
  const int me_u = my_user_rank(env);
  auto& ep = cw->ep[static_cast<std::size_t>(me_u)];
  MMPI_REQUIRE(ep.exposure_group.empty(), "casper: nested win_post");
  ep.exposure_group = g.ranks();
  // Translation (III.C.2): notify each origin with a send (the origins'
  // win_start receives) unless the user asserts the synchronization is
  // already done.
  if (!(mode_assert & mpi::kModeNoCheck)) {
    char token = 1;
    for (int o : ep.exposure_group) {
      Pmpi::send(env, &token, 1, mpi::Dt::Byte, o, kTagPscwPost,
                 user_world_);
    }
  }
}

void CasperLayer::win_start(Env& env, const mpi::Group& g,
                            unsigned mode_assert, const Win& w) {
  auto* cw = managed(w);
  if (cw == nullptr) {
    Pmpi::win_start(env, g, mode_assert, w);
    return;
  }
  MMPI_REQUIRE(cw->epochs & kEpochPscw,
               "casper: pscw used but excluded by epochs_used hint");
  const int me_u = my_user_rank(env);
  auto& ep = cw->ep[static_cast<std::size_t>(me_u)];
  MMPI_REQUIRE(ep.access_group.empty(), "casper: nested win_start");
  ep.access_group = g.ranks();
  for (int t : ep.access_group) mask_set(ep.access_mask, t);
  if (!(mode_assert & mpi::kModeNoCheck)) {
    char token = 0;
    for (int t : ep.access_group) {
      Pmpi::recv(env, &token, 1, mpi::Dt::Byte, t, kTagPscwPost,
                 user_world_);
    }
  }
  rt_->observe_epoch_begin(*cw->user_win, env.world_rank(),
                           mpi::EpochEv::Start, -1, env.now());
}

void CasperLayer::win_complete(Env& env, const Win& w) {
  auto* cw = managed(w);
  if (cw == nullptr) {
    Pmpi::win_complete(env, w);
    return;
  }
  const sim::Time t0 = env.now();
  const int me_u = my_user_rank(env);
  auto& ep = cw->ep[static_cast<std::size_t>(me_u)];
  MMPI_REQUIRE(!ep.access_group.empty(),
               "casper: win_complete without win_start");
  // Remote completion of my ops, then notify each target.
  Pmpi::win_flush_all(env, cw->global_win);
  if (cw->adapt.on) {
    ep.adapt_acc.unflushed_acc = 0;
    for (auto& tl : ep.tl) tl.unflushed_acc = 0;
  }
  char token = 2;
  for (int t : ep.access_group) {
    Pmpi::send(env, &token, 1, mpi::Dt::Byte, t, kTagPscwComplete,
               user_world_);
  }
  ep.access_group.clear();
  std::fill(ep.access_mask.begin(), ep.access_mask.end(), 0);
  end_sync(env, *cw, mpi::SyncKind::Complete, -1, t0);
}

void CasperLayer::win_wait(Env& env, const Win& w) {
  auto* cw = managed(w);
  if (cw == nullptr) {
    Pmpi::win_wait(env, w);
    return;
  }
  const sim::Time t0 = env.now();
  const int me_u = my_user_rank(env);
  auto& ep = cw->ep[static_cast<std::size_t>(me_u)];
  MMPI_REQUIRE(!ep.exposure_group.empty(),
               "casper: win_wait without win_post");
  char token = 0;
  for (int o : ep.exposure_group) {
    Pmpi::recv(env, &token, 1, mpi::Dt::Byte, o, kTagPscwComplete,
               user_world_);
  }
  ep.exposure_group.clear();
  Pmpi::win_sync(env, cw->global_win);
  end_sync(env, *cw, mpi::SyncKind::Wait, -1, t0);
}

void CasperLayer::win_lock(Env& env, mpi::LockType type, int target,
                           unsigned mode_assert, const Win& w) {
  auto* cw = managed(w);
  if (cw == nullptr) {
    Pmpi::win_lock(env, type, target, mode_assert, w);
    return;
  }
  MMPI_REQUIRE(cw->epochs & kEpochLock,
               "casper: lock used but excluded by epochs_used hint");
  const int me_u = my_user_rank(env);
  auto& ep = cw->ep[static_cast<std::size_t>(me_u)];
  auto& tl = ep.tl[static_cast<std::size_t>(target)];
  MMPI_REQUIRE(!tl.locked, "casper: nested lock to target %d", target);
  tl.locked = true;
  tl.type = type;
  tl.mode_assert = mode_assert;
  tl.binding_free = false;
  rt_->observe_epoch_begin(*cw->user_win, env.world_rank(),
                           type == mpi::LockType::Exclusive
                               ? mpi::EpochEv::LockExcl
                               : mpi::EpochEv::Lock,
                           target, env.now());

  // Lock every ghost on the target's node, on the overlapping window
  // dedicated to this target, in the hope of spreading communication
  // (paper III.B; acquisition is delayed by the MPI implementation, so
  // unused locks cost nothing).
  const auto& ti = cw->tgt[static_cast<std::size_t>(target)];
  mpi::Win& iw = cw->ug_wins[static_cast<std::size_t>(ti.local_idx)];
  for (int g : node_ghosts_[static_cast<std::size_t>(ti.node)]) {
    Pmpi::win_lock(env, type, g, mode_assert, iw);
  }
  if (target == me_u) {
    // Self lock: also lock my own rank on the user-visible window so local
    // load/store accesses are protected; granted synchronously.
    Pmpi::win_lock(env, type, target, mode_assert, cw->user_win);
  }
}

void CasperLayer::win_unlock(Env& env, int target, const Win& w) {
  auto* cw = managed(w);
  if (cw == nullptr) {
    Pmpi::win_unlock(env, target, w);
    return;
  }
  const sim::Time t0 = env.now();
  const int me_u = my_user_rank(env);
  auto& ep = cw->ep[static_cast<std::size_t>(me_u)];
  auto& tl = ep.tl[static_cast<std::size_t>(target)];
  MMPI_REQUIRE(tl.locked, "casper: unlock without lock");
  const auto& ti = cw->tgt[static_cast<std::size_t>(target)];
  mpi::Win& iw = cw->ug_wins[static_cast<std::size_t>(ti.local_idx)];
  for (int g : node_ghosts_[static_cast<std::size_t>(ti.node)]) {
    Pmpi::win_unlock(env, g, iw);
  }
  if (target == me_u) {
    Pmpi::win_unlock(env, target, cw->user_win);
  }
  if (tl.user_locked) {
    // Degraded mode issued directly against the user window under a lazily
    // acquired lock; release it with the epoch.
    Pmpi::win_unlock(env, target, cw->user_win);
    tl.user_locked = false;
  }
  tl.locked = false;
  tl.binding_free = false;
  if (cw->adapt.on && tl.unflushed_acc != 0) {
    // Unlock remotely completed this target's accumulates.
    ep.adapt_acc.unflushed_acc -= tl.unflushed_acc;
    tl.unflushed_acc = 0;
  }
  end_sync(env, *cw, mpi::SyncKind::Unlock, target, t0);
}

void CasperLayer::win_lock_all(Env& env, unsigned mode_assert, const Win& w) {
  auto* cw = managed(w);
  if (cw == nullptr) {
    Pmpi::win_lock_all(env, mode_assert, w);
    return;
  }
  MMPI_REQUIRE(cw->epochs & kEpochLockAll,
               "casper: lockall used but excluded by epochs_used hint");
  const int me_u = my_user_rank(env);
  auto& ep = cw->ep[static_cast<std::size_t>(me_u)];
  MMPI_REQUIRE(!ep.lockall, "casper: nested lock_all");
  ep.lockall = true;
  rt_->observe_epoch_begin(*cw->user_win, env.world_rank(),
                           mpi::EpochEv::LockAll, -1, env.now());
  if (!cw->ug_wins.empty()) {
    // lock may be used concurrently by other origins: convert lockall to a
    // series of shared locks on every overlapping window so MPI's permission
    // management sees the conflict (paper III.C.3). Acquisition is delayed,
    // so this is cheap until operations are actually issued.
    for (auto& iw : cw->ug_wins) {
      for (const auto& ghosts : node_ghosts_) {
        for (int g : ghosts) {
          Pmpi::win_lock(env, mpi::LockType::Shared, g, mode_assert, iw);
        }
      }
    }
  }
  // Without the lock hint, operations ride the permanent lockall on the
  // global window; nothing further to acquire.
}

void CasperLayer::win_unlock_all(Env& env, const Win& w) {
  auto* cw = managed(w);
  if (cw == nullptr) {
    Pmpi::win_unlock_all(env, w);
    return;
  }
  const sim::Time t0 = env.now();
  const int me_u = my_user_rank(env);
  auto& ep = cw->ep[static_cast<std::size_t>(me_u)];
  MMPI_REQUIRE(ep.lockall, "casper: unlock_all without lock_all");
  if (!cw->ug_wins.empty()) {
    for (auto& iw : cw->ug_wins) {
      for (const auto& ghosts : node_ghosts_) {
        for (int g : ghosts) {
          Pmpi::win_unlock(env, g, iw);
        }
      }
    }
  } else {
    // Complete everything issued under the permanent lockall.
    Pmpi::win_flush_all(env, cw->global_win);
  }
  for (int u = 0; u < static_cast<int>(ep.tl.size()); ++u) {
    auto& tl = ep.tl[static_cast<std::size_t>(u)];
    if (tl.user_locked) {
      Pmpi::win_unlock(env, u, cw->user_win);
      tl.user_locked = false;
    }
  }
  ep.lockall = false;
  for (auto& tl : ep.tl) {
    tl.binding_free = false;
    tl.unflushed_acc = 0;  // unlock_all remotely completed everything
  }
  if (cw->adapt.on) ep.adapt_acc.unflushed_acc = 0;
  end_sync(env, *cw, mpi::SyncKind::UnlockAll, -1, t0);
}

void CasperLayer::win_flush(Env& env, int target, const Win& w) {
  auto* cw = managed(w);
  if (cw == nullptr) {
    Pmpi::win_flush(env, target, w);
    return;
  }
  const sim::Time t0 = env.now();
  const int me_u = my_user_rank(env);
  auto& ep = cw->ep[static_cast<std::size_t>(me_u)];
  auto& tl = ep.tl[static_cast<std::size_t>(target)];
  MMPI_REQUIRE(tl.locked || ep.lockall,
               "casper: flush outside a passive epoch");
  // Self targets flush too: accumulate-class self ops are redirected
  // through the bound ghost (for atomicity) and complete asynchronously.
  const auto& ti = cw->tgt[static_cast<std::size_t>(target)];
  mpi::Win& iw = route_window(*cw, me_u, target);
  for (int g : node_ghosts_[static_cast<std::size_t>(ti.node)]) {
    Pmpi::win_flush(env, g, iw);
  }
  if (tl.user_locked) {
    // Degraded direct ops went to the user window; complete them too.
    Pmpi::win_flush(env, target, cw->user_win);
  }
  if (cw->adapt.on && tl.unflushed_acc != 0) {
    // The per-ghost flushes above remotely completed this target's
    // accumulates (flush_local would NOT: it only completes locally).
    ep.adapt_acc.unflushed_acc -= tl.unflushed_acc;
    tl.unflushed_acc = 0;
  }
  // After a completed flush the lock is known acquired: the
  // static-binding-free interval begins (paper III.B.3).
  if (tl.locked) tl.binding_free = true;
  end_sync(env, *cw, mpi::SyncKind::Flush, target, t0);
}

void CasperLayer::win_flush_all(Env& env, const Win& w) {
  auto* cw = managed(w);
  if (cw == nullptr) {
    Pmpi::win_flush_all(env, w);
    return;
  }
  const sim::Time t0 = env.now();
  const int me_u = my_user_rank(env);
  auto& ep = cw->ep[static_cast<std::size_t>(me_u)];
  for (int u = 0; u < static_cast<int>(cw->tgt.size()); ++u) {
    if (ep.tl[static_cast<std::size_t>(u)].locked || ep.lockall) {
      win_flush(env, u, w);
    }
  }
  end_sync(env, *cw, mpi::SyncKind::FlushAll, -1, t0);
}

}  // namespace casper::core
