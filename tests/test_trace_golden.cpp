// Golden-trace regression test.
//
// Runs the canonical fig-4(a) passive-target workload (2 nodes x 1 user +
// 1 ghost, Cray XC30 model, Casper layer, seed 0) with the recorder
// attached and compares the stable text export byte-for-byte against the
// committed golden file. The trace contains only virtual times and symbolic
// ids, so any divergence is a semantic change to op routing, epoch
// translation, or scheduling — never ASLR or host noise.
//
//   test_trace_golden            compare against tests/golden/fig4a_trace.txt
//   test_trace_golden --update   rewrite the golden file (review the diff!)
//
// Use scripts/update_golden_trace.sh for the rebuild-and-update loop.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "core/casper.hpp"
#include "mpi/runtime.hpp"
#include "net/profile.hpp"
#include "obs/record.hpp"

#ifndef CASPER_GOLDEN_DIR
#error "CASPER_GOLDEN_DIR must point at the tests/golden directory"
#endif

using namespace casper;

namespace {

// The fig-4(a) inner loop at wait = 4 us, shortened to 4 iterations so the
// golden file stays reviewable.
void workload(mpi::Env& env) {
  mpi::Comm w = env.world();
  void* base = nullptr;
  mpi::Win win = env.win_allocate(sizeof(double), sizeof(double), mpi::Info{},
                                  w, &base);
  const int iters = 4;
  for (int it = 0; it < iters; ++it) {
    env.barrier(w);
    if (env.rank(w) == 0) {
      env.win_lock_all(0, win);
      double v = 1.0;
      env.accumulate(&v, 1, 1, 0, mpi::AccOp::Sum, win);
      env.win_unlock_all(win);
    } else {
      env.compute(sim::us(4));
    }
  }
  env.win_free(win);
}

std::string canonical_trace() {
  obs::Recorder rec;
  mpi::RunConfig rc;
  rc.machine.profile = net::cray_xc30_regular();
  rc.machine.topo.nodes = 2;
  rc.machine.topo.cores_per_node = 2;  // 1 user + 1 ghost per node
  rc.seed = 0;
  rc.recorder = &rec;
  core::Config cc;
  cc.ghosts_per_node = 1;
  mpi::exec(rc, workload, core::layer(cc));
  std::ostringstream os;
  rec.trace().export_text(os);
  return os.str();
}

std::string read_file(const std::string& path, bool* ok) {
  std::ifstream f(path, std::ios::binary);
  if (!f) {
    *ok = false;
    return {};
  }
  *ok = true;
  std::ostringstream os;
  os << f.rdbuf();
  return os.str();
}

// First line where the traces differ, with a little context from both.
void report_diff(const std::string& got, const std::string& want) {
  std::istringstream gs(got), ws(want);
  std::string gl, wl;
  int line = 0;
  while (true) {
    const bool gok = static_cast<bool>(std::getline(gs, gl));
    const bool wok = static_cast<bool>(std::getline(ws, wl));
    ++line;
    if (!gok && !wok) return;  // only trailing bytes differ
    if (gok != wok || gl != wl) {
      std::fprintf(stderr, "first divergence at line %d:\n", line);
      std::fprintf(stderr, "  golden: %s\n", wok ? wl.c_str() : "<eof>");
      std::fprintf(stderr, "  got:    %s\n", gok ? gl.c_str() : "<eof>");
      return;
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  const std::string golden_path =
      std::string(CASPER_GOLDEN_DIR) + "/fig4a_trace.txt";
  const std::string got = canonical_trace();

  if (argc > 1 && std::strcmp(argv[1], "--update") == 0) {
    std::ofstream f(golden_path, std::ios::binary);
    if (!f) {
      std::fprintf(stderr, "cannot write %s\n", golden_path.c_str());
      return 1;
    }
    f << got;
    std::fprintf(stderr, "updated %s (%zu bytes)\n", golden_path.c_str(),
                 got.size());
    return 0;
  }

  bool ok = false;
  const std::string want = read_file(golden_path, &ok);
  if (!ok) {
    std::fprintf(stderr,
                 "missing golden file %s\n"
                 "generate it with: test_trace_golden --update\n",
                 golden_path.c_str());
    return 1;
  }
  if (got == want) {
    std::fprintf(stderr, "golden trace OK (%zu bytes)\n", got.size());
    return 0;
  }
  std::fprintf(stderr,
               "trace deviates from golden (%zu bytes vs %zu golden)\n",
               got.size(), want.size());
  report_diff(got, want);
  std::fprintf(stderr,
               "if the change is intentional, refresh with "
               "scripts/update_golden_trace.sh and review the diff\n");
  return 1;
}
