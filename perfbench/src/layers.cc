// Out-of-engine layer timings for the traced run. Each times one layer in
// isolation, on the workload's own inputs: the program text it parses and
// plans, the keys it generates, the tuples it stores and ships, the
// annotations it condenses, the archive it wrote, and a bare Network of
// its size and message volume.
#include <algorithm>
#include <filesystem>
#include <vector>

#include "bench.h"
#include "core/plan.h"
#include "crypto/authenticator.h"
#include "crypto/keystore.h"
#include "datalog/analysis.h"
#include "datalog/localize.h"
#include "datalog/parser.h"
#include "net/network.h"
#include "provenance/condense.h"
#include "store/archive.h"

namespace perfbench {

using provnet::Bytes;
using provnet::ByteReader;
using provnet::ByteWriter;
using provnet::Engine;
using provnet::Tuple;
namespace fs = std::filesystem;

namespace {

constexpr int kTrials = 5;  // each layer timing is the median of these

template <typename Fn>
double MedianSeconds(Fn&& fn) {
  std::vector<double> t;
  for (int i = 0; i < kTrials; ++i) {
    double t0 = NowSeconds();
    fn();
    t.push_back(NowSeconds() - t0);
  }
  std::sort(t.begin(), t.end());
  return t[t.size() / 2];
}

std::vector<Tuple> StoredTuples(const Engine& engine, size_t n) {
  std::vector<Tuple> out;
  for (NodeId v = 0; v < n; ++v) {
    for (const char* pred :
         {"link", "linkD", "path", "bestPathCost", "bestPath"}) {
      for (Tuple& t : engine.TuplesAt(v, pred)) out.push_back(std::move(t));
    }
  }
  return out;
}

// ns per Send+Step on a bare Network: waves of one message per topology
// edge, drained to idle, until the traced round's message count is sent.
double StepNs(const Inputs& in, uint64_t messages, size_t payload_bytes,
              bool armed) {
  if (messages == 0 || in.topo.edges.empty()) return 0.0;
  Bytes payload(std::max<size_t>(payload_bytes, 1), 0x5a);
  double secs = MedianSeconds([&] {
    provnet::Network net(in.n);
    net.SetHandler([](NodeId, NodeId, const Bytes&) {});
    if (armed) net.EnableTransport(provnet::TransportOptions{});
    uint64_t sent = 0;
    while (sent < messages) {
      for (const provnet::TopoEdge& e : in.topo.edges) {
        if (sent == messages) break;
        (void)net.Send(e.from, e.to, payload);
        ++sent;
      }
      net.Run();
    }
  });
  return secs * 1e9 / static_cast<double>(messages);
}

}  // namespace

void MeasureLayers(const RunConfig& cfg, const Inputs& in, Engine& engine,
                   const std::string& archive_dir,
                   std::map<std::string, double>& out) {
  const std::string& source = ProgramFor(cfg.workload);
  const auto& opts = engine.options();

  // --- datalog / core: parse and plan --------------------------------------
  constexpr int kPlanReps = 20;
  out["datalog.parse_ms"] = MedianSeconds([&] {
                              for (int i = 0; i < kPlanReps; ++i) {
                                (void)provnet::ParseProgram(source);
                              }
                            }) * 1e3 / kPlanReps;
  auto parsed = provnet::ParseProgram(source);
  if (parsed.ok()) {
    out["core.plan_ms"] =
        MedianSeconds([&] {
          for (int i = 0; i < kPlanReps; ++i) {
            provnet::Program program = parsed.value();
            if (!provnet::AnalyzeProgram(program).ok()) return;
            auto localized = provnet::LocalizeProgram(program);
            if (!localized.ok()) return;
            (void)provnet::Plan::Compile(localized.value(),
                                         program.materialize,
                                         opts.default_ttl);
          }
        }) * 1e3 / kPlanReps;
  }

  // --- datalog: tuple codec on the workload's own stored tuples ------------
  std::vector<Tuple> tuples = StoredTuples(engine, in.n);
  if (!tuples.empty()) {
    std::vector<Bytes> encoded;
    for (const Tuple& t : tuples) {
      ByteWriter w;
      t.Serialize(w);
      encoded.push_back(std::move(w).Take());
    }
    size_t reps = std::max<size_t>(1, 200000 / tuples.size());
    double ops = static_cast<double>(reps * tuples.size());
    out["datalog.encode_ns"] = MedianSeconds([&] {
                                 for (size_t r = 0; r < reps; ++r) {
                                   ByteWriter w;
                                   for (const Tuple& t : tuples) t.Serialize(w);
                                 }
                               }) * 1e9 / ops;
    out["datalog.decode_ns"] = MedianSeconds([&] {
                                 for (size_t r = 0; r < reps; ++r) {
                                   for (const Bytes& b : encoded) {
                                     ByteReader reader(b);
                                     (void)Tuple::Deserialize(reader);
                                   }
                                 }
                               }) * 1e9 / ops;
  }

  // --- crypto: keygen, sign and verify at the workload's says level --------
  if (opts.authenticate) {
    out["crypto.keygen_ms"] = MedianSeconds([&] {
                                provnet::KeyStore keys(opts.seed,
                                                       opts.rsa_bits);
                                for (NodeId v = 0; v < in.n; ++v) {
                                  (void)keys.KeyPairFor(engine.PrincipalOf(v));
                                }
                              }) * 1e3;
    provnet::KeyStore keys(opts.seed, opts.rsa_bits);
    provnet::Authenticator auth(&keys);
    std::vector<Bytes> messages;
    for (NodeId v = 0; v < in.n && messages.size() < 64; ++v) {
      for (const Tuple& t : engine.TuplesAt(v, "bestPath")) {
        if (messages.size() == 64) break;
        ByteWriter w;
        t.Serialize(w);
        messages.push_back(std::move(w).Take());
      }
    }
    std::vector<provnet::SaysTag> tags;
    for (size_t i = 0; i < messages.size(); ++i) {
      auto tag = auth.Say(engine.PrincipalOf(static_cast<NodeId>(i % in.n)),
                          messages[i], opts.says_level);
      if (tag.ok()) tags.push_back(tag.value());
    }
    if (!messages.empty() && tags.size() == messages.size()) {
      double ops = static_cast<double>(messages.size());
      out["crypto.sign_ns"] = MedianSeconds([&] {
                                for (size_t i = 0; i < messages.size(); ++i) {
                                  (void)auth.Say(
                                      engine.PrincipalOf(
                                          static_cast<NodeId>(i % in.n)),
                                      messages[i], opts.says_level);
                                }
                              }) * 1e9 / ops;
      out["crypto.verify_ns"] = MedianSeconds([&] {
                                  for (size_t i = 0; i < messages.size();
                                       ++i) {
                                    (void)auth.Verify(tags[i], messages[i]);
                                  }
                                }) * 1e9 / ops;
    }
  }

  // --- provenance: condensing the stored bestPath annotations --------------
  if (opts.prov_mode == provnet::ProvMode::kCondensed) {
    std::vector<provnet::ProvExpr> exprs;
    for (NodeId v = 0; v < in.n; ++v) {
      for (const Tuple& t : engine.TuplesAt(v, "bestPath")) {
        auto expr = engine.AnnotationOf(v, t);
        if (expr.ok()) exprs.push_back(expr.value());
      }
    }
    if (!exprs.empty()) {
      out["provenance.condense_ns"] =
          MedianSeconds([&] {
            for (const provnet::ProvExpr& e : exprs) {
              (void)provnet::Condense(e);
            }
          }) * 1e9 / static_cast<double>(exprs.size());
    }
  }

  // --- store: replaying each node's archive through ProvArchive ------------
  if (!archive_dir.empty()) {
    std::string copy_dir = cfg.work_dir + "/replay";
    std::error_code ec;
    fs::remove_all(copy_dir, ec);
    fs::create_directories(copy_dir, ec);
    std::vector<std::string> copies;
    for (NodeId v = 0; v < in.n; ++v) {
      std::string name = "node" + std::to_string(v) + ".prov";
      fs::copy_file(archive_dir + "/" + name, copy_dir + "/" + name, ec);
      if (!ec) copies.push_back(copy_dir + "/" + name);
    }
    if (!copies.empty()) {
      provnet::store::ArchiveOptions aopts;
      aopts.page.page_bytes = opts.archive_page_bytes;
      aopts.page.cache_pages = opts.archive_cache_pages;
      out["store.replay_ms"] =
          MedianSeconds([&] {
            for (const std::string& path : copies) {
              provnet::store::ProvArchive archive;
              (void)archive.Open(path, aopts);
            }
          }) * 1e3 / static_cast<double>(copies.size());
    }
    fs::remove_all(copy_dir, ec);
  }

  // --- net: bare Network, transport off and armed without loss -------------
  uint64_t messages = static_cast<uint64_t>(out.count("net.messages")
                                                ? out["net.messages"]
                                                : 0.0);
  uint64_t bytes = engine.network().total_bytes();
  size_t payload = messages ? static_cast<size_t>(bytes / messages) : 0;
  out["net.step_idle_ns"] = StepNs(in, messages, payload, /*armed=*/false);
  out["net.step_armed_ns"] = StepNs(in, messages, payload, /*armed=*/true);
}

}  // namespace perfbench
