#include "oracle.h"

#include <limits>
#include <set>

namespace perfbench {

using provnet::ChurnKind;
using provnet::Tuple;
using provnet::Value;
using provnet::ValueKind;

namespace {

constexpr int64_t kUnreachable = std::numeric_limits<int64_t>::max() / 4;

// Floyd-Warshall over the benchmark's own link copy.
std::vector<std::vector<int64_t>> AllPairs(size_t n, const LinkSet& links) {
  std::vector<std::vector<int64_t>> d(n, std::vector<int64_t>(n, kUnreachable));
  for (size_t i = 0; i < n; ++i) d[i][i] = 0;
  for (const auto& [edge, cost] : links) {
    if (cost < d[edge.first][edge.second]) d[edge.first][edge.second] = cost;
  }
  for (size_t k = 0; k < n; ++k) {
    for (size_t i = 0; i < n; ++i) {
      if (d[i][k] == kUnreachable) continue;
      for (size_t j = 0; j < n; ++j) {
        int64_t via = d[i][k] + d[k][j];
        if (via < d[i][j]) d[i][j] = via;
      }
    }
  }
  return d;
}

bool IsAddress(const Value& v) { return v.kind() == ValueKind::kAddress; }

}  // namespace

LinkSet LinksOf(const provnet::Topology& topo) {
  LinkSet links;
  for (const provnet::TopoEdge& e : topo.edges) {
    links[{e.from, e.to}] = e.cost;
  }
  return links;
}

void ApplyChurn(LinkSet& links, const provnet::ChurnEvent& event) {
  if (event.kind == ChurnKind::kLinkDown) {
    links.erase({event.from, event.to});
  } else if (event.kind == ChurnKind::kLinkUp) {
    links[{event.from, event.to}] = event.cost;
  }
}

std::vector<NodeId> PathOf(const Tuple& tuple) {
  std::vector<NodeId> path;
  if (tuple.arity() != 4 || tuple.arg(2).kind() != ValueKind::kList) {
    return path;
  }
  for (const Value& hop : tuple.arg(2).AsList()) {
    if (!IsAddress(hop)) return {};
    path.push_back(hop.AsAddress());
  }
  return path;
}

std::string CheckBestPaths(const provnet::Engine& engine, size_t num_nodes,
                           const LinkSet& links) {
  std::vector<std::vector<int64_t>> dist = AllPairs(num_nodes, links);
  for (NodeId s = 0; s < num_nodes; ++s) {
    std::vector<Tuple> best = engine.TuplesAt(s, "bestPath");
    std::set<NodeId> seen;
    for (const Tuple& t : best) {
      if (t.arity() != 4 || !IsAddress(t.arg(0)) || !IsAddress(t.arg(1)) ||
          t.arg(3).kind() != ValueKind::kInt) {
        return "malformed " + t.ToString();
      }
      NodeId src = t.arg(0).AsAddress();
      NodeId dst = t.arg(1).AsAddress();
      int64_t cost = t.arg(3).AsInt();
      if (src != s || dst >= num_nodes || dst == s) {
        return "misplaced " + t.ToString() + " at " + std::to_string(s);
      }
      if (!seen.insert(dst).second) return "duplicate route " + t.ToString();
      if (dist[s][dst] == kUnreachable) {
        return "route to unreachable node " + t.ToString();
      }
      if (cost != dist[s][dst]) {
        return t.ToString() + " but shortest cost is " +
               std::to_string(dist[s][dst]);
      }
      std::vector<NodeId> path = PathOf(t);
      if (path.size() < 2 || path.front() != src || path.back() != dst) {
        return "bad path vector " + t.ToString();
      }
      std::set<NodeId> on_path(path.begin(), path.end());
      if (on_path.size() != path.size()) return "non-simple " + t.ToString();
      int64_t sum = 0;
      for (size_t i = 0; i + 1 < path.size(); ++i) {
        auto it = links.find({path[i], path[i + 1]});
        if (it == links.end()) {
          return t.ToString() + " crosses missing link " +
                 std::to_string(path[i]) + "->" + std::to_string(path[i + 1]);
        }
        sum += it->second;
      }
      if (sum != cost) return "path costs do not sum in " + t.ToString();
    }
    for (NodeId d = 0; d < num_nodes; ++d) {
      if (d != s && dist[s][d] != kUnreachable && seen.count(d) == 0) {
        return "no route " + std::to_string(s) + "->" + std::to_string(d);
      }
    }
  }
  return "";
}

std::string CheckProof(const provnet::QueryResult& result,
                       const Tuple& queried, const LinkSet& links) {
  const provnet::ProofDag& dag = result.dag;
  if (dag.empty()) return "empty proof for " + queried.ToString();
  if (!(dag.root_node().tuple == queried)) {
    return "proof rooted at " + dag.root_node().tuple.ToString() +
           " for " + queried.ToString();
  }
  std::set<std::pair<NodeId, NodeId>> link_leaves;
  for (const provnet::ProofNode& node : dag.nodes) {
    if (!node.IsLeaf()) continue;
    if (node.rule == provnet::kMissingRule ||
        node.rule == provnet::kUnreachableRule ||
        node.rule == provnet::kCycleRule) {
      return node.rule + " leaf in proof of " + queried.ToString();
    }
    const Tuple& t = node.tuple;
    if (t.predicate() == "link" && t.arity() == 3 && IsAddress(t.arg(0)) &&
        IsAddress(t.arg(1))) {
      link_leaves.insert({t.arg(0).AsAddress(), t.arg(1).AsAddress()});
    }
  }
  std::vector<NodeId> path = PathOf(queried);
  for (size_t i = 0; i + 1 < path.size(); ++i) {
    std::pair<NodeId, NodeId> hop{path[i], path[i + 1]};
    if (links.count(hop) == 0 || link_leaves.count(hop) == 0) {
      return "hop " + std::to_string(hop.first) + "->" +
             std::to_string(hop.second) + " of " + queried.ToString() +
             " is not a link origin of its proof";
    }
  }
  return "";
}

std::string CheckAnnotations(provnet::Engine& engine, size_t num_nodes) {
  for (NodeId s = 0; s < num_nodes; ++s) {
    for (const Tuple& t : engine.TuplesAt(s, "bestPath")) {
      auto condensed = engine.CondensedOf(s, t);
      if (!condensed.ok()) {
        return "no annotation for " + t.ToString() + ": " +
               condensed.status().ToString();
      }
      if (condensed.value().IsZero()) {
        return "zero annotation on " + t.ToString();
      }
      std::vector<provnet::ProvVar> principals;
      for (NodeId hop : PathOf(t)) {
        auto var = engine.registry().Find(engine.PrincipalOf(hop));
        if (var.has_value()) principals.push_back(*var);
      }
      if (!condensed.value().SatisfiedBy(principals)) {
        return "annotation of " + t.ToString() +
               " is not satisfied by the principals on its path";
      }
    }
  }
  return "";
}

std::string CheckHonest(provnet::Engine& engine) {
  if (engine.security_log().size() != 0) {
    return std::to_string(engine.security_log().size()) +
           " security events in an honest run";
  }
  if (engine.network().links_dead() != 0) {
    return std::to_string(engine.network().links_dead()) +
           " links declared dead";
  }
  uint64_t signs = engine.authenticator().sign_count();
  uint64_t verifies = engine.authenticator().verify_count();
  if (signs != verifies) {
    return "signs " + std::to_string(signs) + " != verifies " +
           std::to_string(verifies);
  }
  return "";
}

}  // namespace perfbench
