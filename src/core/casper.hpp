// Casper: process-based asynchronous progress for MPI RMA (the paper's
// primary contribution).
//
// Casper is a PMPI tool (CasperLayer derives from mpi::Pmpi and overrides
// only the calls it intercepts) and:
//
//   1. carves a user-chosen number of cores per node out of the world as
//      *ghost processes* at init time; the application sees
//      COMM_USER_WORLD and never knows the ghosts exist;
//   2. on window allocation, maps every user process's window memory into a
//      node-wide shared segment (MPI_Win_allocate_shared) and exposes it
//      through a set of *overlapping internal windows* whose members include
//      the ghosts;
//   3. redirects every RMA operation from its user target to a ghost process
//      on the target's node (translating rank and offset), so operations
//      that need target-side software complete inside the ghost's MPI
//      runtime while the user process computes.
//
// Correctness machinery implemented per the paper's Section III:
//   - one overlapping window per node-local user process, to bypass MPI lock
//     permission management across different targets while retaining it for
//     the same target (III.A); reduced to a single window via the
//     `epochs_used` info hint;
//   - static rank binding and 16-byte-aligned static segment binding for
//     ordering/atomicity with multiple ghosts (III.B.1, III.B.2);
//   - dynamic binding (random / operation-counting / byte-counting) of
//     PUT/GET during static-binding-free intervals after a flush (III.B.3);
//   - epoch translation: fence -> permanent lockall + flush_all + barrier +
//     win_sync, PSCW -> passive target + send/recv synchronization,
//     lockall -> a series of per-ghost locks (III.C), with the
//     MPI_MODE_NOPRECEDE / NOSUCCEED / NOSTORE / NOPUT / NOCHECK assert
//     fast paths;
//   - synchronous self-op execution (self locks are never delayed) (III.D).
#pragma once

#include <cstdint>
#include <vector>

#include "mpi/runtime.hpp"
#include "net/topology.hpp"
#include "progress/adaptive.hpp"

namespace casper::core {

/// Static binding model for multiple ghost processes (paper III.B).
enum class Binding {
  Rank,     ///< each user process bound to one ghost
  Segment,  ///< node memory split into per-ghost segments (16B aligned)
};

/// Dynamic load-balancing policy for PUT/GET in static-binding-free periods.
enum class DynamicLb {
  None,          ///< static binding only
  Random,        ///< uniform choice among the node's ghosts
  OpCounting,    ///< ghost with fewest operations issued by this origin
  ByteCounting,  ///< ghost with fewest bytes issued by this origin
};

struct Config {
  /// Number of cores per node dedicated to ghost processes (the paper's
  /// CSP_NG environment variable).
  int ghosts_per_node = 1;
  Binding binding = Binding::Rank;
  DynamicLb dynamic = DynamicLb::None;
  /// Place ghosts spread across NUMA domains and bind users to the ghost in
  /// their own domain (paper II.A "topology-aware ghost placement").
  bool topology_aware = true;
  std::uint64_t seed = 7;
  /// Online metrics-driven control of the binding (see src/progress/
  /// adaptive.hpp and DESIGN.md §15). Off by default: with enabled=false no
  /// adaptive state is allocated, no counters are sampled, and every run is
  /// byte-identical to a build without the feature.
  progress::AdaptiveConfig adaptive{};
  /// Test-only fault injection, used by the conformance harness to prove the
  /// shadow oracle detects real binding bugs. Never set outside tests.
  struct Fault {
    /// Mirror the segment→ghost owner mapping for odd user origins: even and
    /// odd origins then route the same segment to different ghosts, so two
    /// processing entities read-modify-write the same bytes concurrently —
    /// exactly the hazard static segment binding exists to prevent
    /// (paper III.B.2). Requires ghosts_per_node >= 2 to have any effect.
    bool flip_segment_binding = false;
  } fault{};
};

/// Layer factory to pass to mpi::exec / mpi::Runtime: installs Casper
/// between the application and the MPI runtime.
mpi::LayerFactory layer(const Config& cfg);

/// Number of application-visible processes for a given machine + config
/// (world size minus the carved-out ghosts).
int user_ranks(const net::Topology& topo, const Config& cfg);

/// World ranks that become ghosts: the last `ghosts_per_node` cores of each
/// node, spread across NUMA domains when topology_aware is set.
bool is_ghost_rank(const net::Topology& topo, const Config& cfg,
                   int world_rank);

/// Every world rank is_ghost_rank selects, in rank order.
std::vector<int> ghost_ranks(const net::Topology& topo, const Config& cfg);

/// The info key Casper reads from win_allocate: a comma-separated subset of
/// "fence,pscw,lock,lockall" declaring which epoch types the application
/// will use on the window (paper III.A).
inline constexpr const char* kEpochsUsedKey = "epochs_used";

}  // namespace casper::core
