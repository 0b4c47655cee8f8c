// The three workloads. Each round builds a fresh engine through the public
// API only (Engine::Create / InsertLinkFacts / Run, ChurnDriver::Step,
// ProvQueryBuilder::Run, Engine::CrashNode / RestartNode), times every
// call, and checks every result against the oracles in oracle.cc.
#include <algorithm>
#include <filesystem>

#include "apps/programs.h"
#include "bench.h"
#include "dynamics/churn.h"
#include "obs/mem.h"
#include "obs/profiler.h"
#include "oracle.h"
#include "query/provquery.h"
#include "util/random.h"

namespace perfbench {

using provnet::Engine;
using provnet::EngineOptions;
using provnet::ProvGrain;
using provnet::ProvMode;
using provnet::Rng;
using provnet::Tuple;
namespace fs = std::filesystem;

namespace {

// Topology seeds follow the repository's benches: 20080407 + n.
constexpr uint64_t kTopoSeedBase = 20080407;

struct Spec {
  const char* name;
  size_t n;
  size_t flaps;         // link flaps per round (two churn events each)
  size_t queries;       // distributed ProvQuery walks per round
  size_t crashes;       // crash -> restart -> converge per round
};

constexpr Spec kSpecs[] = {
    {"secure-churn", 40, 50, 0, 0},
    {"lossy-forensics", 40, 0, 1000, 0},
    {"durable-full", 36, 50, 36 * 35, 3},  // every bestPath tuple once
};

const Spec* FindSpec(const std::string& name) {
  for (const Spec& s : kSpecs) {
    if (name == s.name) return &s;
  }
  return nullptr;
}

uint64_t Mix(uint64_t x) {  // SplitMix64 finalizer: derives sub-seeds
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

EngineOptions OptionsFor(const std::string& workload, const Inputs& in,
                         size_t threads, const std::string& archive_dir) {
  EngineOptions opts;
  opts.threads = threads;
  opts.seed = in.engine_seed;
  if (workload == "secure-churn") {
    // SeNDLogProv: RSA-signed SeNDlog, condensed principal-grain
    // provenance.
    opts.authenticate = true;
    opts.says_level = provnet::SaysLevel::kRsa;
    opts.prov_mode = ProvMode::kCondensed;
    opts.prov_grain = ProvGrain::kPrincipal;
  } else if (workload == "lossy-forensics") {
    opts.authenticate = true;
    opts.says_level = provnet::SaysLevel::kHmac;
    opts.prov_mode = ProvMode::kPointers;
    opts.fault_plan = provnet::FaultPlan::UniformLoss(0.01, in.loss_seed);
  } else {  // durable-full
    opts.prov_mode = ProvMode::kFull;
    opts.prov_grain = ProvGrain::kTuple;
    opts.record_offline = true;
    opts.archive_dir = archive_dir;
  }
  return opts;
}

}  // namespace

const std::string& ProgramFor(const std::string& workload) {
  return workload == "durable-full" ? provnet::BestPathNdlogProgram()
                                    : provnet::BestPathSendlogProgram();
}

namespace {

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (entry.is_regular_file()) total += entry.file_size();
  }
  return total;
}

// Wall time of the benchmark's own checks, kept out of round_s.
class CheckClock {
 public:
  template <typename Fn>
  std::string Run(Fn&& fn) {
    double t0 = NowSeconds();
    std::string err = fn();
    spent_ += NowSeconds() - t0;
    return err;
  }
  double spent() const { return spent_; }

 private:
  double spent_ = 0.0;
};

double Mb(uint64_t bytes) { return static_cast<double>(bytes) / 1e6; }

void ReadTraceLayers(Engine& engine, Round& r) {
  using provnet::obs::MemAccounting;
  using provnet::obs::MemSubsystem;
  using provnet::obs::Phase;
  const provnet::obs::Profiler& prof = engine.profiler();
  const provnet::obs::Registry& reg = engine.metrics();
  const provnet::RunStats& st = engine.cumulative_stats();
  const MemAccounting& mem = MemAccounting::Global();
  provnet::Network& net = engine.network();
  auto ms = [&](Phase p) { return static_cast<double>(prof.PhaseNs(p)) / 1e6; };
  auto peak_mb = [&](MemSubsystem s) { return Mb(mem.PeakBytes(s)); };
  auto& L = r.layer;

  L["core.derivations"] = static_cast<double>(st.derivations);
  L["core.join_candidates"] = static_cast<double>(st.join_candidates);
  L["core.candidates_per_derivation"] =
      st.derivations ? static_cast<double>(st.join_candidates) /
                           static_cast<double>(st.derivations)
                     : 0.0;
  L["core.events"] = static_cast<double>(st.events);
  L["core.events_ms"] = ms(Phase::kEvents);
  L["core.parallel_compute_ms"] = ms(Phase::kParallelCompute);
  L["core.commit_replay_ms"] = ms(Phase::kCommitReplay);
  L["core.commit_serial_fraction"] = prof.CommitSerialFraction();
  L["core.table_peak_mb"] =
      peak_mb(MemSubsystem::kTableRows) + peak_mb(MemSubsystem::kTableIndexes);

  L["crypto.signs"] = static_cast<double>(engine.authenticator().sign_count());
  L["crypto.verifies"] =
      static_cast<double>(engine.authenticator().verify_count());
  L["crypto.sign_ms"] = ms(Phase::kSign);
  L["crypto.auth_mb"] = Mb(st.auth_bytes);
  L["adversary.verify_ms"] = ms(Phase::kVerify);

  L["provenance.prov_mb"] = Mb(st.prov_bytes);
  L["provenance.annotations_peak_mb"] =
      peak_mb(MemSubsystem::kProvAnnotations);
  L["provenance.bdd_peak_mb"] = peak_mb(MemSubsystem::kBddNodes);

  double interned = static_cast<double>(reg.CounterTotal("store.interned_nodes"));
  double hits = static_cast<double>(reg.CounterTotal("store.interned_hits"));
  L["store.interned_nodes"] = interned;
  L["store.interned_hits"] = hits;
  L["store.intern_hit_ratio"] =
      interned + hits > 0 ? hits / (interned + hits) : 0.0;
  L["store.page_writes"] =
      static_cast<double>(reg.CounterTotal("store.archive_page_writes"));
  L["store.page_reads"] =
      static_cast<double>(reg.CounterTotal("store.archive_page_reads"));
  L["store.compactions"] =
      static_cast<double>(reg.CounterTotal("store.archive_compactions"));
  L["store.arena_peak_mb"] = peak_mb(MemSubsystem::kProvArena);
  L["store.archive_peak_mb"] = peak_mb(MemSubsystem::kArchivePages);

  double messages = static_cast<double>(net.total_messages());
  L["net.messages"] = messages;
  L["net.deliveries"] = static_cast<double>(net.deliveries());
  L["net.delivery_ms"] = ms(Phase::kDelivery);
  L["net.retransmits"] = static_cast<double>(net.retransmits());
  L["net.acks"] = static_cast<double>(net.acks_received());
  L["net.dup_deduped"] = static_cast<double>(net.duplicates_deduped());
  L["net.losses"] = static_cast<double>(reg.CounterTotal("faults.losses"));
  L["net.retransmits_per_frame"] =
      messages > 0 ? static_cast<double>(net.retransmits()) / messages : 0.0;
  L["net.queues_peak_mb"] = peak_mb(MemSubsystem::kNetworkQueues);

  L["dynamics.retractions"] = static_cast<double>(st.retractions);
  L["dynamics.rederivations"] = static_cast<double>(st.rederivations);
  L["dynamics.retractions_ms"] = ms(Phase::kRetractions);
  L["dynamics.rederive_ms"] = ms(Phase::kRederive);
  L["dynamics.churn_mb"] = Mb(r.churn_bytes);

  L["query.serve_ms"] = ms(Phase::kQueryServe);
  L["obs.accounted_peak_mb"] = Mb(mem.TotalPeakBytes());
}

}  // namespace

bool KnownWorkload(const std::string& name) {
  return FindSpec(name) != nullptr;
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const Spec& s : kSpecs) names.push_back(s.name);
  return names;
}

Inputs MakeInputs(const RunConfig& cfg) {
  const Spec& spec = *FindSpec(cfg.workload);
  Inputs in;
  in.n = spec.n;
  // Only the choice and order of queried tuples depend on --seed. The
  // topology, churn script and loss pattern are fixed: the stale-route
  // fault of incremental maintenance fails a topology-dependent share of
  // link-down events, and the receive window of the transport loses a
  // pattern-dependent set of retransmitted frames (README.md, "Known
  // faults"); those shares must be the same in every run. The key seed is
  // fixed too, because RSA key generation searches for primes from it and
  // so costs a different amount of set-up work for every seed.
  in.topo_seed = kTopoSeedBase + spec.n;
  in.loss_seed = in.topo_seed;
  Rng topo_rng(in.topo_seed);
  in.topo = provnet::Topology::RingPlusRandom(spec.n, 3, topo_rng);
  if (spec.flaps > 0) {
    Rng script_rng(in.topo_seed ^ 0x9e3779b97f4a7c15ull);
    in.churn = provnet::ChurnScript::RandomLinkFlaps(
                   in.topo, spec.flaps, /*start=*/1.0, /*spacing=*/1.0,
                   script_rng)
                   .events;
  }
  in.engine_seed = Mix(in.topo_seed ^ 0x1111);
  in.pick_seed = Mix(cfg.seed ^ 0x3333);
  in.queries = spec.queries;
  // Crash victims are fixed too: a recovery rewrites the victims'
  // archives, and archive-served query cost depends on which ones.
  Rng pick(in.topo_seed ^ 0x5a5a);
  while (in.crash_victims.size() < spec.crashes) {
    NodeId v = static_cast<NodeId>(pick.NextBelow(spec.n));
    if (std::find(in.crash_victims.begin(), in.crash_victims.end(), v) ==
        in.crash_victims.end()) {
      in.crash_victims.push_back(v);
    }
  }
  return in;
}

Round RunRound(const RunConfig& cfg, const Inputs& in, size_t threads,
               Tracing tracing, bool warmup) {
  using provnet::obs::MemAccounting;
  Round r;
  r.threads = threads;
  r.tracing = tracing;
  const bool traced = tracing == Tracing::kOn;
  const bool overhead =
      tracing == Tracing::kEvenOps || tracing == Tracing::kOddOps;
  const bool secure = cfg.workload == "secure-churn";
  CheckClock checks;
  auto fail_round = [&](const std::string& what, const provnet::Status& s) {
    r.errors.push_back(what + ": " + s.ToString());
  };

  std::string archive_dir;
  if (cfg.workload == "durable-full") {
    archive_dir = cfg.work_dir + "/archive";
    std::error_code ec;
    fs::remove_all(archive_dir, ec);
    fs::create_directories(archive_dir, ec);
  }
  if (traced) {
    MemAccounting::Global().Reset();
    MemAccounting::Global().Enable();
  } else {
    MemAccounting::Global().Disable();
  }

  // --- setup: parse, plan, keygen, node contexts, link facts -------------
  EngineOptions opts = OptionsFor(cfg.workload, in, threads, archive_dir);
  double round_t0 = NowSeconds();
  auto created = Engine::Create(in.topo, ProgramFor(cfg.workload), opts);
  if (!created.ok()) {
    fail_round("Engine::Create", created.status());
    return r;
  }
  std::unique_ptr<Engine> engine = std::move(created).value();
  provnet::Status inserted = engine->InsertLinkFacts();
  r.setup_s = NowSeconds() - round_t0;
  if (!inserted.ok()) {
    fail_round("InsertLinkFacts", inserted);
    return r;
  }
  if (traced) engine->profiler().Enable();

  // Overhead rounds trace every other operation (the converge is operation
  // 0): kEvenOps the even ones, kOddOps the odd ones. A pair of such rounds
  // times every operation once traced and once untraced.
  size_t op_index = 0;
  auto begin_op = [&] {
    if (!overhead) return;
    if ((op_index++ % 2 == 0) == (tracing == Tracing::kEvenOps)) {
      engine->profiler().Enable();
      MemAccounting::Global().Enable();
    } else {
      engine->profiler().Disable();
      MemAccounting::Global().Disable();
    }
  };
  auto end_op = [&](double dt) {
    if (overhead) r.op_s.push_back(dt);
  };

  // --- converge (Figure 3 / Figure 4) ------------------------------------
  begin_op();
  double t0 = NowSeconds();
  auto converged = engine->Run();
  r.converge_s = NowSeconds() - t0;
  end_op(r.converge_s);
  if (!converged.ok()) {
    fail_round("Run", converged.status());
    return r;
  }
  if (warmup) return r;
  const provnet::RunStats& cs = converged.value();
  r.counts["converge.bytes"] = static_cast<double>(cs.bytes);
  r.counts["converge.messages"] = static_cast<double>(cs.messages);
  r.counts["converge.vt"] = cs.sim_seconds;
  r.counts["converge.derivations"] = static_cast<double>(cs.derivations);
  r.counts["converge.join_candidates"] =
      static_cast<double>(cs.join_candidates);
  r.counts["converge.signs"] = static_cast<double>(cs.signs);
  r.counts["converge.retransmits"] =
      static_cast<double>(engine->network().retransmits());

  LinkSet links = LinksOf(in.topo);
  auto check_state = [&]() {
    std::string err = CheckBestPaths(*engine, in.n, links);
    if (err.empty() && secure) err = CheckAnnotations(*engine, in.n);
    return err;
  };
  auto note_op = [&](const std::string& what, const std::string& err) {
    ++r.attempted;
    if (!err.empty()) {
      ++r.failed;
      r.failures.push_back(what + ": " + err);
    }
  };
  note_op("converge", checks.Run(check_state));

  // --- churn: one link flap event at a time ------------------------------
  if (!in.churn.empty()) {
    provnet::ChurnDriver driver(*engine, /*link_arity=*/3);
    uint64_t churn_derivations = 0;
    for (size_t i = 0; i < in.churn.size(); ++i) {
      const provnet::ChurnEvent& ev = in.churn[i];
      begin_op();
      t0 = NowSeconds();
      auto step = driver.Step(ev);
      double dt = NowSeconds() - t0;
      end_op(dt);
      r.churn_wall_s += dt;
      if (!step.ok()) {
        fail_round("ChurnDriver::Step " + ev.ToString(), step.status());
        return r;
      }
      r.churn_ms.push_back(dt * 1e3);
      r.churn_bytes += step.value().bytes;
      churn_derivations += step.value().derivations;
      ApplyChurn(links, ev);
      note_op("churn #" + std::to_string(i) + " " + ev.ToString(),
              checks.Run(check_state));
    }
    r.counts["churn.bytes"] = static_cast<double>(r.churn_bytes);
    r.counts["churn.derivations"] = static_cast<double>(churn_derivations);
  }

  // --- crash -> restart -> re-converge -----------------------------------
  for (NodeId victim : in.crash_victims) {
    begin_op();
    t0 = NowSeconds();
    provnet::Status s = engine->CrashNode(victim);
    if (s.ok()) s = engine->Run().status();
    if (s.ok()) s = engine->RestartNode(victim);
    if (s.ok()) s = engine->Run().status();
    double dt = NowSeconds() - t0;
    end_op(dt);
    if (!s.ok()) {
      fail_round("crash/restart of node " + std::to_string(victim), s);
      return r;
    }
    r.recover_s.push_back(dt);
    note_op("recovery of node " + std::to_string(victim),
            checks.Run(check_state));
  }

  // --- distributed ProvQuery walks ---------------------------------------
  if (in.queries > 0) {
    if (!archive_dir.empty()) {
      // Archive-served forensics: the online records have aged out.
      for (NodeId v = 0; v < in.n; ++v) engine->node(v).online_store().Clear();
    }
    std::vector<std::pair<NodeId, Tuple>> targets;
    for (NodeId v = 0; v < in.n; ++v) {
      for (Tuple& t : engine->TuplesAt(v, "bestPath")) {
        targets.emplace_back(v, std::move(t));
      }
    }
    Rng pick(in.pick_seed);
    for (size_t i = targets.size(); i > 1; --i) {
      std::swap(targets[i - 1], targets[pick.NextBelow(i)]);
    }
    uint64_t records = 0, requests = 0, lookups = 0, offline = 0;
    for (size_t q = 0; q < in.queries && !targets.empty(); ++q) {
      const auto& [at, tuple] = targets[q % targets.size()];
      begin_op();
      t0 = NowSeconds();
      auto result = provnet::ProvQueryBuilder(*engine)
                        .At(at)
                        .Of(tuple)
                        .WithScope(provnet::QueryScope::kDistributed)
                        .Run();
      double dt = NowSeconds() - t0;
      end_op(dt);
      r.query_wall_s += dt;
      std::string what = "query " + tuple.ToString();
      if (!result.ok()) {
        note_op(what, result.status().ToString());
        continue;
      }
      r.query_ms.push_back(dt * 1e3);
      const provnet::QueryStats& qs = result.value().stats;
      r.query_bytes += qs.bytes;
      records += qs.records;
      requests += qs.requests;
      lookups += qs.local_lookups;
      offline += qs.offline_hits;
      note_op(what, checks.Run([&] {
                return CheckProof(result.value(), tuple, links);
              }));
    }
    double nq = static_cast<double>(std::max<size_t>(in.queries, 1));
    r.counts["query.bytes"] = static_cast<double>(r.query_bytes);
    r.counts["query.records"] = static_cast<double>(records);
    r.counts["query.requests"] = static_cast<double>(requests);
    r.layer["query.requests"] = static_cast<double>(requests);
    r.layer["query.records_per_query"] = static_cast<double>(records) / nq;
    r.layer["query.local_lookups"] = static_cast<double>(lookups);
    r.layer["query.offline_hits"] = static_cast<double>(offline);
  }
  r.round_s = NowSeconds() - round_t0 - checks.spent();
  r.checks_s = checks.spent();

  note_op("honest-run audit", CheckHonest(*engine));

  r.counts["total.derivations"] =
      static_cast<double>(engine->cumulative_stats().derivations);
  r.counts["total.signs"] =
      static_cast<double>(engine->authenticator().sign_count());
  r.counts["total.retransmits"] =
      static_cast<double>(engine->network().retransmits());
  r.counts["total.messages"] =
      static_cast<double>(engine->network().total_messages());
  r.counts["ops.attempted"] = static_cast<double>(r.attempted);
  r.counts["ops.failed"] = static_cast<double>(r.failed);
  if (!archive_dir.empty()) {
    r.counts["archive.bytes"] = static_cast<double>(DirBytes(archive_dir));
  }

  if (traced) {
    ReadTraceLayers(*engine, r);
    r.layer["net.virtual_converge_s"] = cs.sim_seconds;
    MeasureLayers(cfg, in, *engine, archive_dir, r.layer);
  }
  engine.reset();
  if (!archive_dir.empty()) {
    std::error_code ec;
    fs::remove_all(archive_dir, ec);
  }
  return r;
}

}  // namespace perfbench
