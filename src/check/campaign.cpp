#include "check/campaign.hpp"

#include <cinttypes>
#include <cstdlib>
#include <cstring>
#include <optional>

#include "check/fuzz.hpp"
#include "check/kvfuzz.hpp"
#include "check/mwfuzz.hpp"
#include "net/profile.hpp"
#include "obs/record.hpp"
#include "progress/progress.hpp"

namespace casper::check {

namespace {

constexpr const char* kReproHeader = "# casper repro v2";

/// Does the run of `c` cut to `prefix` ops under `perturb` fail `chk`?
template <class W>
bool fails_at(const typename W::Case& c, const Check<W>& chk,
              std::uint64_t perturb, std::size_t prefix) {
  const typename W::Outcome out = W::run(c, perturb, prefix);
  if (chk.fails != nullptr) return chk.fails(c, prefix, out);
  return chk.differs(c, out, W::run(c, perturb_for(c.seed, 0), prefix));
}

/// The first of W's checks that `out` fails (`ref` = schedule 0's run, null
/// while `out` is schedule 0's run itself), or nullptr.
template <class W>
const Check<W>* first_failing(const typename W::Case& c,
                              const typename W::Outcome& out,
                              const typename W::Outcome* ref) {
  for (const Check<W>& chk : W::checks()) {
    const bool bad = chk.fails != nullptr
                         ? chk.fails(c, kAllOps, out)
                         : ref != nullptr && chk.differs(c, out, *ref);
    if (bad) return &chk;
  }
  return nullptr;
}

/// Minimize the failing op prefix of `r` (its seed, schedule, switches and
/// plan already set) and write the repro.
template <class W>
Failure record(Repro r, const typename W::Case& c, const Check<W>& chk,
               const std::string& dir) {
  r.kind = chk.kind;
  r.prefix_ops = minimize_prefix(
      static_cast<int>(c.ops.size()), [&](int n) {
        return fails_at<W>(c, chk, r.perturb, static_cast<std::size_t>(n));
      });
  const typename W::Outcome rerun =
      W::run(c, r.perturb, static_cast<std::size_t>(r.prefix_ops));
  Failure fl;
  fl.seed = r.seed;
  fl.perturb = r.perturb;
  fl.kind = r.kind;
  fl.minimized_ops = r.prefix_ops;
  fl.repro_path = write_repro<W>(r, c, rerun, dir);
  return fl;
}

/// Re-run a parsed repro of workload W; nullopt when W has no such check
/// kind or planted bug.
template <class W>
std::optional<bool> replay_as(const Repro& r) {
  const Check<W>* chk = nullptr;
  for (const Check<W>& c : W::checks()) {
    if (r.kind == c.kind) chk = &c;
  }
  const PlantedBug<W>* bug = nullptr;
  for (const PlantedBug<W>& b : W::bugs()) {
    if (r.bug == b.name) bug = &b;
  }
  if (chk == nullptr || (!r.bug.empty() && bug == nullptr)) {
    return std::nullopt;
  }
  typename W::Case c = W::generate(r);
  if (r.plan.active()) c.fault_plan = r.plan;
  if (bug != nullptr) bug->plant(c);
  const std::size_t prefix =
      r.prefix_ops > 0 ? static_cast<std::size_t>(r.prefix_ops) : kAllOps;
  return fails_at<W>(c, *chk, r.perturb, prefix);
}

void write_plan(std::FILE* f, const fault::FaultPlan& p) {
  std::fprintf(f,
               "netfault seed=%" PRIu64 " drop=%.17g dup=%.17g delay=%.17g "
               "dmin=%" PRIu64 " dmax=%" PRIu64 " ackdrop=%.17g "
               "rto=%" PRIu64 " maxretries=%d hb=%" PRIu64 "\n",
               p.seed, p.net.drop_p, p.net.dup_p, p.net.delay_p,
               p.net.delay_min, p.net.delay_max, p.net.ack_drop_p, p.rto_base,
               p.max_retries, p.heartbeat_period);
  for (const fault::GhostKill& k : p.kills) {
    std::fprintf(f, "kill rank=%d at=%" PRIu64 "\n", k.world_rank, k.at);
  }
  for (const fault::GhostStall& s : p.stalls) {
    std::fprintf(f, "stall rank=%d at=%" PRIu64 " dur=%" PRIu64 "\n",
                 s.world_rank, s.at, s.duration);
  }
}

/// Parse one write_plan line into `p`; false when `line` is not one.
bool parse_plan_line(const char* line, fault::FaultPlan& p) {
  fault::GhostKill k;
  fault::GhostStall s;
  if (std::sscanf(line,
                  "netfault seed=%" SCNu64 " drop=%lg dup=%lg delay=%lg "
                  "dmin=%" SCNu64 " dmax=%" SCNu64 " ackdrop=%lg rto=%" SCNu64
                  " maxretries=%d hb=%" SCNu64,
                  &p.seed, &p.net.drop_p, &p.net.dup_p, &p.net.delay_p,
                  &p.net.delay_min, &p.net.delay_max, &p.net.ack_drop_p,
                  &p.rto_base, &p.max_retries, &p.heartbeat_period) == 10) {
    return true;
  }
  if (std::sscanf(line, "kill rank=%d at=%" SCNu64, &k.world_rank, &k.at) ==
      2) {
    p.kills.push_back(k);
    return true;
  }
  if (std::sscanf(line, "stall rank=%d at=%" SCNu64 " dur=%" SCNu64,
                  &s.world_rank, &s.at, &s.duration) == 3) {
    p.stalls.push_back(s);
    return true;
  }
  return false;
}

}  // namespace

const char* to_string(Mode m) {
  static constexpr const char* kNames[] = {"original", "thread", "casper"};
  return kNames[static_cast<int>(m)];
}

net::Topology Deployment::topology() const {
  return {.nodes = nodes,
          .cores_per_node = mode == Mode::Casper ? users_per_node + ghosts
                                                 : users_per_node};
}

core::Config Deployment::casper() const {
  return {.ghosts_per_node = ghosts, .binding = binding, .dynamic = dynamic};
}

std::vector<int> Deployment::ghost_ranks() const {
  if (mode != Mode::Casper) return {};
  return core::ghost_ranks(topology(), casper());
}

void draw_topology(sim::Rng& rng, Deployment& d) {
  d.nodes = 1 + static_cast<int>(rng.next_below(2));
  d.users_per_node = 1 + static_cast<int>(rng.next_below(3));
  if (d.nusers() < 2) d.users_per_node = 2;
  d.ghosts = 1 + static_cast<int>(rng.next_below(2));
}

void draw_routing(sim::Rng& rng, Deployment& d) {
  d.binding = rng.next_below(2) ? core::Binding::Segment : core::Binding::Rank;
  // None, Random, OpCounting, ByteCounting: the enum's order.
  d.dynamic = static_cast<core::DynamicLb>(rng.next_below(4));
}

DeployedRun::DeployedRun(const Deployment& d, const core::Config& cc,
                         std::uint64_t perturb, int shards, bool on_request,
                         std::function<void(mpi::Env&)> body)
    : faulted_(d.fault_plan.active()) {
  const char* env = std::getenv("CASPER_TRACE");
  traced_ = obs::kTraceCompiled &&
            (!on_request || (env != nullptr && std::strcmp(env, "0") != 0 &&
                             std::strcmp(env, "off") != 0));
  const bool sharded = shards > 1;
  mpi::RunConfig rc;
  rc.machine.profile = net::cray_xc30_regular();
  rc.machine.topo = d.topology();
  rc.seed = d.seed;
  rc.perturb_seed = sharded ? 0 : perturb;
  rc.shards = shards;
  if (!sharded && faulted_) rc.fault = &d.fault_plan;
  if (d.mode == Mode::Thread) {
    rc.progress.kind = progress::Kind::Thread;
    rc.progress.oversubscribed = true;
  }
  rc.recorder = recorder();
  rt_.emplace(rc, std::move(body),
              d.mode == Mode::Casper ? core::layer(cc) : mpi::LayerFactory{});
}

void DeployedRun::snapshot(RunSnapshot& out, const char* prefix) {
  out.atomicity_violations = rt_->stats().get("atomicity_violations");
  const auto keep = [&out](const auto& all, const char* a, const char* b) {
    for (const auto& [key, val] : all) {
      if (key.rfind(a, 0) == 0 || key.rfind(b, 0) == 0) {
        out.counters[key] = val;
      }
    }
  };
  if (faulted_) keep(rt_->stats().all(), "fault.", "recovery.");
  if (traced_) keep(rec_.metrics().counters(), prefix, "linear.");
}

void CheckedWorkload::write_diags(std::FILE* f, const CheckedOutcome& out) {
  for (const std::string& d : out.diags) put_lines(f, "violation", d);
  std::fprintf(f, "history_hash %" PRIu64 "\n", out.history_hash);
  std::fprintf(f, "checker_ops %zu\n", out.checker_ops);
}

std::uint64_t perturb_for(std::uint64_t seed, int s) {
  if (s == 0) return 0;  // schedule 0 is always the classic order
  sim::Rng rng(seed, 0x5eed + static_cast<std::uint64_t>(s));
  const std::uint64_t v = rng.next_u64();
  return v == 0 ? 1 : v;
}

int minimize_prefix(int total, const std::function<bool(int)>& fails) {
  int lo = 1, hi = total;
  while (lo < hi) {
    const int mid = lo + (hi - lo) / 2;
    if (fails(mid)) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  // The bisection assumes failing prefixes stay failing when extended; the
  // final check catches the (rare) non-monotone case.
  return fails(lo) ? lo : total;
}

void add_lossy_net(fault::FaultPlan& fp, std::uint64_t seed,
                   const LossyNet& shape) {
  sim::Rng rng(seed, shape.stream);
  fp.seed = seed ^ shape.seed_xor;
  fault::NetFaults& n = fp.net;
  // Always at least one fault class; higher rolls stack several so the
  // retry/dedup/reorder machinery gets exercised together.
  const std::uint64_t mix = rng.next_below(8);
  if (mix == 0 || (mix & 1) != 0) {
    n.drop_p = 0.02 + shape.drop_dup_span * rng.next_double();
  }
  if (mix == 1 || (mix & 2) != 0) {
    n.dup_p = 0.02 + shape.drop_dup_span * rng.next_double();
  }
  if (mix == 2 || (mix & 4) != 0) {
    // Delay doubles as reorder: a jitter window wider than the inter-op
    // issue gap makes later sends overtake earlier ones.
    n.delay_p = 0.05 + shape.delay_span * rng.next_double();
    n.delay_min = sim::us(1);
    n.delay_max = sim::us(5 + rng.next_below(shape.delay_max_us));
  }
  if (rng.next_below(3) == 0) {
    n.ack_drop_p = 0.02 + shape.ack_span * rng.next_double();
  }
}

void write_deployment(std::FILE* f, const Deployment& d, bool with_mode) {
  std::fprintf(f, "case ");
  if (with_mode) std::fprintf(f, "mode=%s ", to_string(d.mode));
  std::fprintf(f, "nodes=%d users_per_node=%d ghosts=%d binding=%s dynamic=%d",
               d.nodes, d.users_per_node, d.ghosts,
               d.binding == core::Binding::Segment ? "segment" : "rank",
               static_cast<int>(d.dynamic));
}

void put_lines(std::FILE* f, const char* key, const std::string& text) {
  std::size_t at = 0;
  while (at < text.size()) {
    std::size_t end = text.find('\n', at);
    if (end == std::string::npos) end = text.size();
    std::fprintf(f, "%s %.*s\n", key, static_cast<int>(end - at),
                 text.data() + at);
    at = end + 1;
  }
}

template <class W>
CampaignResult run_campaign(const CampaignOptions& opt) {
  CampaignResult res;
  for (int i = 0; i < opt.cases; ++i) {
    Repro r;
    r.seed = opt.base_seed + static_cast<std::uint64_t>(i);
    r.reduced = opt.reduced;
    r.races = opt.planted_races;
    r.adaptive = opt.force_adaptive;
    r.lockfree = opt.force_lockfree;
    typename W::Case c = W::generate(r);
    if (opt.net_faults) add_lossy_net(c.fault_plan, c.seed, W::kLossyNet);
    r.plan = c.fault_plan;
    ++res.cases_run;

    typename W::Outcome ref;
    for (int s = 0; s < opt.schedules; ++s) {
      r.perturb = perturb_for(r.seed, s);
      typename W::Outcome out = W::run(c, r.perturb, kAllOps);
      ++res.runs;
      res.total += W::count(out);
      const Check<W>* bad = first_failing<W>(c, out, s > 0 ? &ref : nullptr);
      if (bad != nullptr) {
        res.failures.push_back(record<W>(r, c, *bad, opt.repro_dir));
        break;
      }
      if (s == 0) ref = std::move(out);
    }
    if (opt.verbose && (i + 1) % 50 == 0) {
      std::fprintf(stderr,
                   "%s fuzz: %d/%d cases, %d runs, %" PRIu64
                   " %s, %zu failure(s)\n",
                   W::kName, i + 1, opt.cases, res.runs, res.total,
                   W::kCountLabel, res.failures.size());
    }
  }
  return res;
}

template <class W>
std::vector<Failure> prove(std::uint64_t base_seed, int schedules,
                           const std::string& dir) {
  const Check<W>& primary = W::checks().front();
  std::vector<Failure> caught;
  for (const PlantedBug<W>& bug : W::bugs()) {
    const std::uint64_t end =
        base_seed + static_cast<std::uint64_t>(bug.seed_scan);
    std::optional<Failure> hit;
    int hit_schedule = -1;
    for (std::uint64_t seed = base_seed; seed < end && !hit; ++seed) {
      Repro r;
      r.seed = seed;
      r.bug = bug.name;
      typename W::Case c = W::generate(r);
      if (!bug.candidate(c)) continue;
      bug.plant(c);
      if (bug.faults != nullptr) bug.faults(c);
      r.plan = c.fault_plan;
      for (int s = 0; s < schedules; ++s) {
        r.perturb = perturb_for(seed, s);
        if (!primary.fails(c, kAllOps, W::run(c, r.perturb, kAllOps))) {
          continue;
        }
        hit = record<W>(r, c, primary, dir);
        hit_schedule = s;
        break;
      }
    }
    if (!hit) {
      std::fprintf(stderr,
                   "%s proof: planted %s was NOT caught in seeds [%" PRIu64
                   ", %" PRIu64 ")\n",
                   W::kName, bug.name, base_seed, end);
      return {};
    }
    if (!replay_file(hit->repro_path).reproduced) {
      std::fprintf(stderr,
                   "%s proof: repro \"%s\" of planted %s did not reproduce "
                   "on replay\n",
                   W::kName, hit->repro_path.c_str(), bug.name);
      return {};
    }
    std::fprintf(stderr,
                 "%s proof: planted %s caught (seed %" PRIu64
                 ", schedule %d, minimized to %d op(s)), repro %s replays\n",
                 W::kName, bug.name, hit->seed, hit_schedule,
                 hit->minimized_ops, hit->repro_path.c_str());
    caught.push_back(std::move(*hit));
  }
  return caught;
}

template <class W>
std::string write_repro(const Repro& r, const typename W::Case& c,
                        const typename W::Outcome& out,
                        const std::string& dir) {
  char name[160];
  std::snprintf(name, sizeof(name),
                "casper_%s_repro_s%" PRIu64 "_p%" PRIu64 "%s%s.txt",
                W::kName, r.seed, r.perturb, r.bug.empty() ? "" : "_",
                r.bug.c_str());
  const std::string path = dir.empty() ? name : dir + "/" + name;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return {};
  std::fprintf(f, "%s\n", kReproHeader);
  std::fprintf(f, "# replay: fuzz_conformance --replay %s\n", path.c_str());
  std::fprintf(f, "workload %s\n", W::kName);
  std::fprintf(f, "kind %s\n", r.kind.c_str());
  std::fprintf(f, "seed %" PRIu64 "\n", r.seed);
  std::fprintf(f, "perturb %" PRIu64 "\n", r.perturb);
  std::fprintf(f, "prefix %d\n", r.prefix_ops);
  std::fprintf(f, "reduced %d\n", r.reduced ? 1 : 0);
  std::fprintf(f, "bug %s\n", r.bug.empty() ? "none" : r.bug.c_str());
  if (r.races > 0) std::fprintf(f, "races %d\n", r.races);
  if (r.adaptive) std::fprintf(f, "adaptive 1\n");
  if (r.lockfree) std::fprintf(f, "lockfree 1\n");
  if (r.plan.active()) write_plan(f, r.plan);
  const std::size_t nops =
      r.prefix_ops > 0
          ? std::min(static_cast<std::size_t>(r.prefix_ops), c.ops.size())
          : c.ops.size();
  W::write_case(f, c, std::min<std::size_t>(nops, 256));
  W::write_diags(f, out);
  std::fclose(f);
  return path;
}

bool parse_repro(const std::string& path, Repro& out) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return false;
  char line[512];
  const bool header =
      std::fgets(line, sizeof(line), f) != nullptr &&
      std::strncmp(line, kReproHeader, std::strlen(kReproHeader)) == 0;
  bool have_seed = false, have_kind = false;
  while (header && std::fgets(line, sizeof(line), f) != nullptr) {
    char word[64];
    int b = 0;
    if (std::sscanf(line, "workload %63s", word) == 1) {
      out.workload = word;
    } else if (std::sscanf(line, "kind %63s", word) == 1) {
      out.kind = word;
      have_kind = true;
    } else if (std::sscanf(line, "seed %" SCNu64, &out.seed) == 1) {
      have_seed = true;
    } else if (std::sscanf(line, "perturb %" SCNu64, &out.perturb) == 1) {
    } else if (std::sscanf(line, "prefix %d", &out.prefix_ops) == 1) {
    } else if (std::sscanf(line, "reduced %d", &b) == 1) {
      out.reduced = b != 0;
    } else if (std::sscanf(line, "bug %63s", word) == 1) {
      out.bug = std::strcmp(word, "none") == 0 ? "" : word;
    } else if (std::sscanf(line, "races %d", &out.races) == 1) {
    } else if (std::sscanf(line, "adaptive %d", &b) == 1) {
      out.adaptive = b != 0;
    } else if (std::sscanf(line, "lockfree %d", &b) == 1) {
      out.lockfree = b != 0;
    } else {
      parse_plan_line(line, out.plan);
    }
  }
  std::fclose(f);
  return header && have_seed && have_kind;
}

ReplayResult replay_file(const std::string& path) {
  ReplayResult res;
  if (!parse_repro(path, res.repro)) return res;
  const Repro& r = res.repro;
  std::optional<bool> rep;  // stays empty for an unknown workload
  if (r.workload == RmaWorkload::kName) {
    rep = replay_as<RmaWorkload>(r);
  } else if (r.workload == KvWorkload::kName) {
    rep = replay_as<KvWorkload>(r);
  } else if (r.workload == MwWorkload::kName) {
    rep = replay_as<MwWorkload>(r);
  }
  res.valid = rep.has_value();
  res.reproduced = rep.value_or(false);
  return res;
}

template CampaignResult run_campaign<RmaWorkload>(const CampaignOptions&);
template CampaignResult run_campaign<KvWorkload>(const CampaignOptions&);
template CampaignResult run_campaign<MwWorkload>(const CampaignOptions&);
template std::vector<Failure> prove<RmaWorkload>(std::uint64_t, int,
                                                 const std::string&);
template std::vector<Failure> prove<KvWorkload>(std::uint64_t, int,
                                                const std::string&);
template std::vector<Failure> prove<MwWorkload>(std::uint64_t, int,
                                                const std::string&);
template std::string write_repro<RmaWorkload>(const Repro&, const RmaCase&,
                                              const RunOutcome&,
                                              const std::string&);
template std::string write_repro<KvWorkload>(const Repro&, const KvCase&,
                                             const KvOutcome&,
                                             const std::string&);
template std::string write_repro<MwWorkload>(const Repro&, const MwCase&,
                                             const MwOutcome&,
                                             const std::string&);

}  // namespace casper::check
