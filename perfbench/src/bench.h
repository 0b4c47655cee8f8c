// Shared declarations of the perfbench program.
//
// One process runs one workload: whole rounds of a fixed, seeded scenario
// until the measuring time is used up. Every round checks its outputs
// against oracles computed apart from the engine (oracle.cc) and records
// a fingerprint of every count and size it produced; rounds must agree on
// that fingerprint exactly (threads 1 and 2 alike), or the run is not
// correct.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "dynamics/churn.h"
#include "net/topology.h"

namespace perfbench {

using provnet::NodeId;

// Wall clock for every span the benchmark records.
inline double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// What the command line fixes for a run.
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;  // scratch space inside the checkout (archives)
};

// The fixed inputs of one workload, made from the workload's own
// constants and --seed. The same RunConfig yields the same Inputs.
struct Inputs {
  size_t n = 0;
  uint64_t topo_seed = 0;    // topology and churn script (seed-independent)
  uint64_t loss_seed = 0;    // fault-plan verdicts (seed-independent)
  uint64_t engine_seed = 0;  // keys (seed-independent)
  uint64_t pick_seed = 0;    // query selection and order; from --seed
  provnet::Topology topo;
  std::vector<provnet::ChurnEvent> churn;  // empty when the workload has none
  size_t queries = 0;        // distributed ProvQuery walks per round
  std::vector<NodeId> crash_victims;  // crash -> restart (seed-independent)
};

// How a round is traced: not at all, wholly (the per-layer figures), or
// every other operation, even or odd (the tracing overhead). Tracing is
// obs::Profiler and obs::MemAccounting.
enum class Tracing { kOff, kOn, kEvenOps, kOddOps };

// One round's outcome. Timings feed the end-to-end medians; `counts` is
// the determinism fingerprint; `layer` holds traced per-layer numbers.
struct Round {
  size_t threads = 0;
  Tracing tracing = Tracing::kOff;
  double setup_s = 0.0;
  double converge_s = 0.0;
  double round_s = 0.0;            // engine creation to last operation
  double checks_s = 0.0;           // the benchmark's own checks
  std::vector<double> churn_ms;    // one per churn event
  std::vector<double> query_ms;    // one per query
  std::vector<double> recover_s;   // one per crash -> restart -> converge
  double churn_wall_s = 0.0;
  double query_wall_s = 0.0;
  std::vector<double> op_s;        // overhead rounds: every operation
  uint64_t churn_bytes = 0;
  uint64_t query_bytes = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;  // correctness violations (not failures)
  std::vector<std::string> failures;  // operations that failed a check
  std::map<std::string, double> counts;  // must repeat exactly
  std::map<std::string, double> layer;   // traced rounds only
};

// Workload entry points (workloads.cc). RunRound plays one whole round;
// a warm-up round stops after converging and checks nothing.
Inputs MakeInputs(const RunConfig& cfg);
bool KnownWorkload(const std::string& name);
// NDlog or SeNDlog Best-Path source text of the workload.
const std::string& ProgramFor(const std::string& workload);
std::vector<std::string> WorkloadNames();
Round RunRound(const RunConfig& cfg, const Inputs& in, size_t threads,
               Tracing tracing, bool warmup = false);
// Out-of-engine layer timings for the traced run (layers.cc).
void MeasureLayers(const RunConfig& cfg, const Inputs& in,
                   provnet::Engine& engine, const std::string& archive_dir,
                   std::map<std::string, double>& out);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
