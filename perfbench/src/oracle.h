// Independent correctness checks. Nothing here reads the engine's own
// notion of the right answer: shortest paths are recomputed from the
// benchmark's copy of the link set, proofs are checked against the
// queried tuple's own path vector, and annotations against the principals
// on that path.
#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "dynamics/churn.h"
#include "query/provquery.h"

namespace perfbench {

using provnet::NodeId;

// The current directed links, (from, to) -> cost.
using LinkSet = std::map<std::pair<NodeId, NodeId>, int64_t>;

LinkSet LinksOf(const provnet::Topology& topo);
// Applies a link-down / link-up event to the benchmark's copy.
void ApplyChurn(LinkSet& links, const provnet::ChurnEvent& event);

// Every node's bestPath set must equal all-pairs shortest paths over
// `links`, and every path vector must be a simple path over existing links
// whose costs sum to the tuple's cost. Returns "" when it holds, else the
// first violation.
std::string CheckBestPaths(const provnet::Engine& engine, size_t num_nodes,
                           const LinkSet& links);

// The proof must be rooted at `queried`, carry no missing / unreachable /
// cycle leaves, and hold a `link` origin leaf for every hop of the tuple's
// path vector.
std::string CheckProof(const provnet::QueryResult& result,
                       const provnet::Tuple& queried, const LinkSet& links);

// Condensed principal-grain annotations: non-zero, and satisfied by the
// principals on the tuple's own path.
std::string CheckAnnotations(provnet::Engine& engine, size_t num_nodes);

// Honest-run invariants: empty security log, no dead link, and one verify
// per signature.
std::string CheckHonest(provnet::Engine& engine);

// The path vector of a bestPath/path tuple (empty when malformed).
std::vector<NodeId> PathOf(const provnet::Tuple& tuple);

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
