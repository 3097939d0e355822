#include "net/profile.hpp"

namespace casper::net {

Profile cray_xc30_regular() {
  Profile p;
  p.name = "CrayXC30-regular";
  p.hw_contig_put = false;
  p.hw_contig_get = false;
  p.hw_lock = false;
  p.net_latency = sim::ns(1400);
  p.net_ns_per_byte = 0.12;  // ~8.3 GB/s Aries
  return p;
}

Profile cray_xc30_dmapp() {
  Profile p = cray_xc30_regular();
  p.name = "CrayXC30-DMAPP";
  p.hw_contig_put = true;
  p.hw_contig_get = true;
  p.hw_lock = true;
  return p;
}

Profile fusion_mvapich() {
  Profile p;
  p.name = "Fusion-MVAPICH";
  p.hw_contig_put = true;
  p.hw_contig_get = true;
  p.hw_lock = true;
  p.net_latency = sim::ns(2300);  // QDR InfiniBand
  p.net_ns_per_byte = 0.3;        // ~3.2 GB/s
  p.am_handling = sim::ns(800);
  return p;
}

}  // namespace casper::net
