// perfbench: one closed-loop workload of the provenance-aware secure
// network per process.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --work-dir DIR
//
// A run first plays one reference round at 1 engine thread and a warm-up
// converge at 2, then whole measured rounds at 2 threads until S seconds
// have passed (at least three). Every count and size of every round must
// equal the reference round's, and every operation is checked against the
// oracles. The last line of standard output is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). With --trace 1 the measured rounds come in groups of four:
// two wholly traced rounds give the per-layer figures, and two overhead
// rounds between them trace every other operation, the even ones in one
// and the odd ones in the other, so every operation is timed once traced
// and once untraced (obs.trace_overhead).
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"

using namespace perfbench;

namespace {

constexpr size_t kMeasuredThreads = 2;
constexpr size_t kMinRounds = 3;

// Every per-layer metric, in print order, with its unit.
const std::pair<const char*, const char*> kLayerMetrics[] = {
    {"datalog.parse_ms", "ms"},
    {"datalog.encode_ns", "ns"},
    {"datalog.decode_ns", "ns"},
    {"core.plan_ms", "ms"},
    {"core.derivations", "count"},
    {"core.join_candidates", "count"},
    {"core.candidates_per_derivation", "ratio"},
    {"core.events", "count"},
    {"core.events_ms", "ms"},
    {"core.parallel_compute_ms", "ms"},
    {"core.commit_replay_ms", "ms"},
    {"core.commit_serial_fraction", "ratio"},
    {"core.table_peak_mb", "MB"},
    {"crypto.keygen_ms", "ms"},
    {"crypto.signs", "count"},
    {"crypto.verifies", "count"},
    {"crypto.sign_ms", "ms"},
    {"crypto.sign_ns", "ns"},
    {"crypto.verify_ns", "ns"},
    {"crypto.auth_mb", "MB"},
    {"adversary.verify_ms", "ms"},
    {"provenance.prov_mb", "MB"},
    {"provenance.condense_ns", "ns"},
    {"provenance.annotations_peak_mb", "MB"},
    {"provenance.bdd_peak_mb", "MB"},
    {"store.interned_nodes", "count"},
    {"store.interned_hits", "count"},
    {"store.intern_hit_ratio", "ratio"},
    {"store.page_writes", "count"},
    {"store.page_reads", "count"},
    {"store.compactions", "count"},
    {"store.replay_ms", "ms"},
    {"store.arena_peak_mb", "MB"},
    {"store.archive_peak_mb", "MB"},
    {"net.messages", "count"},
    {"net.deliveries", "count"},
    {"net.delivery_ms", "ms"},
    {"net.retransmits", "count"},
    {"net.acks", "count"},
    {"net.dup_deduped", "count"},
    {"net.losses", "count"},
    {"net.retransmits_per_frame", "ratio"},
    {"net.step_idle_ns", "ns"},
    {"net.step_armed_ns", "ns"},
    {"net.queues_peak_mb", "MB"},
    {"net.virtual_converge_s", "virtual_s"},
    {"dynamics.retractions", "count"},
    {"dynamics.rederivations", "count"},
    {"dynamics.retractions_ms", "ms"},
    {"dynamics.rederive_ms", "ms"},
    {"dynamics.churn_mb", "MB"},
    {"query.requests", "count"},
    {"query.records_per_query", "count"},
    {"query.local_lookups", "count"},
    {"query.offline_hits", "count"},
    {"query.serve_ms", "ms"},
    {"obs.accounted_peak_mb", "MB"},
    {"obs.unaccounted_mb", "MB"},
    {"obs.trace_overhead", "ratio"},
};

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : (v[m - 1] + v[m]) / 2.0;
}

// Nearest-rank percentile over pooled samples.
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(p * v.size()));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  char buf[64];
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    double v = std::isfinite(m.value) ? m.value : 0.0;
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    if (i > 0) json += ", ";
    json += "\"" + m.name + "\": {\"value\": " + buf + ", \"unit\": \"" +
            m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --work-dir DIR\n  workloads:");
  for (const std::string& w : WorkloadNames()) {
    std::fprintf(stderr, " %s", w.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

// The operation the closed loop repeats: churn events where the workload
// has no queries, distributed queries otherwise.
struct OpView {
  std::vector<double> ms;
  double wall_s = 0.0;
  uint64_t bytes = 0;
  size_t count = 0;
};

OpView OpsOf(const std::vector<Round>& rounds) {
  OpView v;
  for (const Round& r : rounds) {
    bool queries = !r.query_ms.empty();
    const std::vector<double>& ms = queries ? r.query_ms : r.churn_ms;
    v.ms.insert(v.ms.end(), ms.begin(), ms.end());
    v.wall_s += queries ? r.query_wall_s : r.churn_wall_s;
    v.bytes += queries ? r.query_bytes : r.churn_bytes;
    v.count += ms.size();
  }
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig cfg;
  bool have_workload = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    std::string val = argv[i + 1];
    if (key == "--workload") {
      cfg.workload = val;
      have_workload = true;
    } else if (key == "--seed") {
      cfg.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      cfg.seconds = std::atof(val.c_str());
    } else if (key == "--trace") {
      cfg.trace = val == "1";
      have_trace = true;
    } else if (key == "--work-dir") {
      cfg.work_dir = val;
    } else {
      return Usage();
    }
  }
  if (argc % 2 == 0 || !have_workload || !have_trace ||
      cfg.work_dir.empty() || !KnownWorkload(cfg.workload)) {
    return Usage();
  }
  std::error_code ec;
  std::filesystem::create_directories(cfg.work_dir, ec);

  Inputs in = MakeInputs(cfg);
  std::printf("build: g++ %s, %s; hardware threads: %u\n", __VERSION__,
              PERFBENCH_BUILD, std::thread::hardware_concurrency());
  std::printf("perfbench %s: n=%zu seed=%llu threads=%zu (reference round at "
              "1) trace=%d\n",
              cfg.workload.c_str(), in.n,
              static_cast<unsigned long long>(cfg.seed), kMeasuredThreads,
              cfg.trace ? 1 : 0);

  // Round 0 is the threads-1 reference: checked, not timed. A converge at
  // 2 threads then warms the worker pool and the allocator; the first
  // threads-2 fixpoint of a process runs up to twice as long.
  std::vector<Round> all;
  all.push_back(RunRound(cfg, in, 1, Tracing::kOff));
  Round warmup =
      RunRound(cfg, in, kMeasuredThreads, Tracing::kOff, /*warmup=*/true);
  double t0 = NowSeconds();
  for (size_t k = 0;; ++k) {
    Tracing tracing = Tracing::kOff;
    if (cfg.trace) {
      const Tracing group[] = {Tracing::kEvenOps, Tracing::kOn,
                               Tracing::kOddOps, Tracing::kOn};
      tracing = group[k % 4];
    }
    all.push_back(RunRound(cfg, in, kMeasuredThreads, tracing));
    if (!all.back().errors.empty()) break;
    bool whole = !cfg.trace || (k + 1) % 4 == 0;
    if (whole && k + 1 >= kMinRounds && NowSeconds() - t0 >= cfg.seconds) {
      break;
    }
  }

  for (size_t i = 0; i < all.size(); ++i) {
    const Round& r = all[i];
    const std::vector<double>& ops = r.query_ms.empty() ? r.churn_ms
                                                        : r.query_ms;
    std::printf("round %zu: threads=%zu traced=%d setup_s=%.4f "
                "converge_s=%.4f op_p50_ms=%.4f round_s=%.3f checks_s=%.3f\n",
                i, r.threads, r.tracing == Tracing::kOn ? 1 : 0, r.setup_s,
                r.converge_s, Percentile(ops, 0.5), r.round_s, r.checks_s);
  }

  // --- correctness: oracles, then exact repetition of every count ---------
  bool correct = warmup.errors.empty();
  for (const std::string& e : warmup.errors) {
    std::printf("ERROR warm-up: %s\n", e.c_str());
  }
  uint64_t attempted = 0, failed = 0;
  const Round& ref = all.front();
  for (size_t i = 0; i < all.size(); ++i) {
    const Round& r = all[i];
    attempted += r.attempted;
    failed += r.failed;
    for (const std::string& e : r.errors) {
      std::printf("ERROR round %zu: %s\n", i, e.c_str());
      correct = false;
    }
    if (r.failures != ref.failures) {
      correct = false;
      std::printf("ERROR round %zu (threads %zu): failed operations differ "
                  "from the reference round's\n", i, r.threads);
    }
    if (r.counts != ref.counts) {
      correct = false;
      for (const auto& [key, value] : ref.counts) {
        auto it = r.counts.find(key);
        double got = it == r.counts.end() ? NAN : it->second;
        if (got != value) {
          std::printf("ERROR round %zu (threads %zu): %s = %.17g, reference "
                      "round (threads 1) has %.17g\n",
                      i, r.threads, key.c_str(), got, value);
        }
      }
    }
  }
  if (!ref.failures.empty()) {
    std::printf("failed operations per round: %zu of %llu\n",
                ref.failures.size(),
                static_cast<unsigned long long>(ref.attempted));
    for (const std::string& f : ref.failures) {
      std::printf("  FAILED %s\n", f.c_str());
    }
  }

  // End-to-end figures come from the untraced rounds after the reference.
  std::vector<Round> measured, traced;
  for (size_t i = 1; i < all.size(); ++i) {
    (all[i].tracing == Tracing::kOn ? traced : measured).push_back(all[i]);
  }
  auto median_of = [](const std::vector<Round>& rs, double Round::*field) {
    std::vector<double> v;
    for (const Round& r : rs) v.push_back(r.*field);
    return Median(v);
  };
  auto count_of = [&](const char* key) {
    auto it = ref.counts.find(key);
    return it == ref.counts.end() ? 0.0 : it->second;
  };
  double peak_rss = PeakRssMb();

  // The workload-named figures, for readers of the log.
  std::vector<double> churn, queries, recover;
  double churn_wall = 0.0, query_wall = 0.0;
  for (const Round& r : measured) {
    churn.insert(churn.end(), r.churn_ms.begin(), r.churn_ms.end());
    queries.insert(queries.end(), r.query_ms.begin(), r.query_ms.end());
    recover.insert(recover.end(), r.recover_s.begin(), r.recover_s.end());
    churn_wall += r.churn_wall_s;
    query_wall += r.query_wall_s;
  }
  std::printf("rounds: %zu measured, %zu traced; vt_converge_s=%.6f "
              "wire_mb=%.6f\n",
              measured.size(), traced.size(), count_of("converge.vt"),
              count_of("converge.bytes") / 1e6);
  if (!churn.empty()) {
    std::printf("churn: %zu events/round churn_events_per_s=%.3f "
                "churn_p50_ms=%.3f churn_p90_ms=%.3f churn_kb=%.3f\n",
                ref.churn_ms.size(), churn.size() / churn_wall,
                Percentile(churn, 0.5), Percentile(churn, 0.9),
                count_of("churn.bytes") / 1e3 / ref.churn_ms.size());
  }
  if (!queries.empty()) {
    std::printf("queries: %zu/round queries_per_s=%.3f query_p50_ms=%.4f "
                "query_p99_ms=%.4f query_kb=%.4f\n",
                ref.query_ms.size(), queries.size() / query_wall,
                Percentile(queries, 0.5), Percentile(queries, 0.99),
                count_of("query.bytes") / 1e3 / ref.query_ms.size());
  }
  if (!recover.empty()) {
    double sum = 0.0;
    for (double s : recover) sum += s;
    std::printf("recovery: %zu/round recover_s=%.4f archive_mb=%.6f\n",
                ref.recover_s.size(), sum / recover.size(),
                count_of("archive.bytes") / 1e6);
  }
  std::printf("peak_rss_mb=%.2f\n", peak_rss);

  std::vector<Metric> metrics;
  if (!cfg.trace) {
    OpView ops = OpsOf(measured);
    metrics = {
        {"setup_s", median_of(measured, &Round::setup_s), "s"},
        {"converge_s", median_of(measured, &Round::converge_s), "s"},
        {"wire_mb", count_of("converge.bytes") / 1e6, "MB"},
        {"op_per_s", ops.wall_s > 0 ? ops.count / ops.wall_s : 0.0, "1/s"},
        {"op_p50_ms", Percentile(ops.ms, 0.5), "ms"},
        {"op_p90_ms", Percentile(ops.ms, 0.9), "ms"},
        {"op_kb", ops.count ? ops.bytes / 1e3 / ops.count : 0.0, "kB"},
        {"round_s", median_of(measured, &Round::round_s), "s"},
        {"peak_rss_mb", peak_rss, "MB"},
    };
  } else {
    std::map<std::string, std::vector<double>> samples;
    for (const Round& r : traced) {
      for (const auto& [key, value] : r.layer) samples[key].push_back(value);
    }
    std::map<std::string, double> layer;
    for (auto& [key, values] : samples) layer[key] = Median(values);
    layer["obs.unaccounted_mb"] = peak_rss - layer["obs.accounted_peak_mb"];
    // The overhead rounds come in pairs of the same work, even operations
    // traced in the first and odd ones in the second, so every operation
    // has one traced and one untraced time. The geometric mean of their
    // ratios cancels a uniform slowdown of one round against the other.
    double log_sum = 0.0;
    size_t ratios = 0;
    for (size_t i = 0; i + 1 < measured.size(); i += 2) {
      const Round& even = measured[i];
      const Round& odd = measured[i + 1];
      size_t ops = std::min(even.op_s.size(), odd.op_s.size());
      for (size_t k = 0; k < ops; ++k) {
        double on = k % 2 == 0 ? even.op_s[k] : odd.op_s[k];
        double off = k % 2 == 0 ? odd.op_s[k] : even.op_s[k];
        if (on > 0 && off > 0) {
          log_sum += std::log(on / off);
          ++ratios;
        }
      }
    }
    layer["obs.trace_overhead"] = ratios ? std::exp(log_sum / ratios) : 0.0;
    for (const auto& [name, unit] : kLayerMetrics) {
      metrics.push_back({name, layer.count(name) ? layer[name] : 0.0, unit});
    }
  }
  for (const Metric& m : metrics) {
    std::printf("  %-32s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  PrintResult(correct, attempted, failed, metrics);
  return 0;
}
