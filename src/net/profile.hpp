// Machine profiles: which RMA operations the "network hardware" executes
// without target-side software (at most contiguous PUT/GET and the lock
// protocol; never accumulates), and the cost constants of the platform model.
//
// Three built-in profiles mirror the paper's evaluation platforms:
//  - CrayXC30Regular: Cray MPI in regular mode — every RMA operation is
//    executed in target-side software (active messages).
//  - CrayXC30Dmapp: Cray MPI with DMAPP — contiguous PUT/GET and passive-lock
//    handling in hardware; accumulates and noncontiguous operations in
//    software (served via interrupts when interrupt progress is enabled).
//  - FusionMvapich: MVAPICH on InfiniBand — contiguous PUT/GET and locks in
//    hardware; accumulates and noncontiguous operations as software active
//    messages (served by a background thread when thread progress is
//    enabled).
#pragma once

#include <string>

#include "sim/time.hpp"

namespace casper::net {

using sim::Time;

/// Cost and capability model of one platform. All Times are virtual ns.
struct Profile {
  std::string name;

  // --- hardware RMA capability -------------------------------------------
  bool hw_contig_put = false;  ///< contiguous PUT executes in hardware
  bool hw_contig_get = false;  ///< contiguous GET executes in hardware
  bool hw_lock = false;        ///< passive-target lock protocol at the NIC

  // --- wire latency / bandwidth -------------------------------------------
  Time net_latency = sim::ns(1500);   ///< inter-node one-way latency
  Time shm_latency = sim::ns(300);    ///< intra-node one-way latency
  double net_ns_per_byte = 0.125;     ///< ~8 GB/s inter-node
  double shm_ns_per_byte = 0.04;      ///< ~25 GB/s intra-node
  /// Extra cost of crossing the node's NUMA interconnect: added to the
  /// intra-node latency, and remote-domain memory is slower per byte. This
  /// is what Casper's topology-aware ghost placement avoids (paper II.A).
  Time numa_latency = sim::ns(250);
  double numa_ns_per_byte = 0.04;

  // --- software costs ------------------------------------------------------
  Time op_inject = sim::ns(250);      ///< origin-side per-operation overhead
  Time am_handling = sim::ns(600);    ///< target-side software cost per op
  double am_ns_per_byte = 0.5;        ///< target-side per-byte software cost (~2 GB/s RMW)
  Time lock_handling = sim::ns(350);  ///< software lock grant/release cost
  Time win_sync_cost = sim::ns(200);  ///< memory-barrier cost of win_sync

  // --- asynchronous-progress agent costs -----------------------------------
  Time interrupt_cost = sim::us(4);       ///< per-message interrupt overhead
  Time thread_call_overhead = sim::ns(300);  ///< thread-multiple cost per call
  Time thread_handoff = sim::ns(1000);       ///< agent wakeup/lock contention

  // --- in-application progress penalty --------------------------------------
  // An application process services incoming software operations at degraded
  // per-operation efficiency compared to a dedicated progress core: its
  // progress-engine entries are interleaved with application work (cold
  // caches, unexpected-queue matching) and contend with every other busy
  // process on the node. Dedicated progress ranks (Casper ghosts, registered
  // via Runtime::set_dedicated_progress) process at the base cost;
  // application pollers cost
  //   am_handling * (app_progress_base + app_progress_contention * (cpn-1)).
  // Calibrated so the relative Casper-vs-original factors of the paper's
  // Figs. 5-6 hold (ghost progress on 2 dedicated cores beating
  // in-application progress on 16 busy cores).
  double app_progress_base = 1.0;
  double app_progress_contention = 0.5;

  /// Late-drain processing factor for a node with `cpn` cores.
  double busy_factor(int cpn) const {
    return app_progress_base +
           app_progress_contention * static_cast<double>(cpn - 1);
  }

  // --- window management ---------------------------------------------------
  Time win_create_base = sim::us(15);      ///< fixed cost of window creation
  Time win_create_per_rank = sim::ns(1200);///< per-member cost of creation
  Time barrier_stage = sim::ns(900);       ///< per-log2(p) barrier stage cost

  /// One-way message latency for `bytes` payload between two ranks.
  Time latency(bool same_node, std::size_t bytes) const {
    const Time base = same_node ? shm_latency : net_latency;
    const double per_byte = same_node ? shm_ns_per_byte : net_ns_per_byte;
    return base + static_cast<Time>(per_byte * static_cast<double>(bytes));
  }

  /// Target-side software processing cost of one operation of `bytes`.
  /// `cross_numa` adds the remote-domain memory penalty: the processing
  /// entity touches window memory that lives in another NUMA domain.
  Time handling(std::size_t bytes, bool cross_numa = false) const {
    Time t = am_handling +
             static_cast<Time>(am_ns_per_byte * static_cast<double>(bytes));
    if (cross_numa) {
      t += numa_latency + static_cast<Time>(numa_ns_per_byte *
                                            static_cast<double>(bytes));
    }
    return t;
  }
};

/// Cray XC30, Cray MPI regular mode: all RMA in software.
Profile cray_xc30_regular();

/// Cray XC30, Cray MPI DMAPP mode: hardware contiguous PUT/GET + locks,
/// software accumulates (interrupt-driven when interrupt progress enabled).
Profile cray_xc30_dmapp();

/// Fusion cluster, MVAPICH on InfiniBand: hardware contiguous PUT/GET +
/// locks, software accumulates.
Profile fusion_mvapich();

}  // namespace casper::net
