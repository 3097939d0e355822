// Baseline asynchronous-progress models (the approaches Casper is compared
// against in the paper):
//
//  - Kind::None      "original MPI": software-path RMA operations complete
//                    only when the target rank itself enters the MPI stack.
//  - Kind::Thread    background-thread progress (MPICH/MVAPICH/Intel MPI
//                    style): a per-process helper thread polls the network
//                    and processes incoming software operations. Costs: a
//                    thread-multiple overhead on *every* MPI call made by the
//                    process, a handoff/lock-contention cost per serviced
//                    operation, and either an oversubscribed core (compute
//                    runs at half speed) or a dedicated core (half the cores
//                    do no application work — arranged by the experiment's
//                    rank layout, cf. Table I).
//  - Kind::Interrupt DMAPP-style interrupt progress (Cray MPI, BG/P): every
//                    incoming software operation raises an interrupt that
//                    preempts the target core, costing a fixed interrupt
//                    latency plus the handler time, stolen from application
//                    computation. Interrupts are counted in stats
//                    ("interrupts") — cf. Fig. 4(c).
//
// The delivery-path mechanics live in mpi::Runtime; this header defines the
// configuration surface.
#pragma once

#include <string>

namespace casper::progress {

enum class Kind { None, Thread, Interrupt };

/// Compute-time factor of an oversubscribed core: the application shares it
/// with its progress thread, so it gets half the core.
inline constexpr double kOversubScale = 2.0;

struct Config {
  Kind kind = Kind::None;
  /// Thread(O) in the paper: the progress thread shares the application
  /// core, so application compute effectively runs at kOversubScale cost.
  bool oversubscribed = false;
};

/// Processing-entity id spaces. RMA work is attributed to the entity that
/// executed it: a rank fiber (poller or Casper ghost), a progress agent
/// (thread/interrupt handler, id nranks + r), or the NIC (hardware path,
/// id 2*nranks + r). The observability layer keys its tracks on these ids.
enum class EntityClass { Rank, Agent, Nic };

inline EntityClass classify_entity(int entity, int nranks) {
  if (entity < nranks) return EntityClass::Rank;
  if (entity < 2 * nranks) return EntityClass::Agent;
  return EntityClass::Nic;
}

/// World rank the entity belongs to (the agent/NIC of rank r maps to r).
inline int entity_rank(int entity, int nranks) { return entity % nranks; }

inline std::string entity_label(int entity, int nranks) {
  switch (classify_entity(entity, nranks)) {
    case EntityClass::Rank: return "rank " + std::to_string(entity);
    case EntityClass::Agent:
      return "agent " + std::to_string(entity_rank(entity, nranks));
    case EntityClass::Nic:
      return "nic " + std::to_string(entity_rank(entity, nranks));
  }
  return "entity " + std::to_string(entity);
}

}  // namespace casper::progress
