//===- perfbench/Main.cpp - Benchmark binary ------------------------------===//
//
// Usage: perfbench --workload <compile|startup|learn|serve> --seed <n>
//                  --seconds <s> --trace <0|1>
//
// Sets the workload up, warms it up, then measures closed-loop operations
// for --seconds, setting up more fresh workloads between slices of the
// measured loop (setup_s is the fastest of all set-ups). The last line of
// standard output is one JSON object: the end-to-end metrics with
// --trace 0, the per-layer ledger and work counts with --trace 1.
// Exit status 0 means a result was printed; `correct` says whether every
// output matched its reference.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "support/Telemetry.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

using namespace perfbench;

namespace {

/// Set-ups per run: one before the measured loop, the rest between its
/// slices.
constexpr unsigned SetupReps = 8;
constexpr double WarmupSeconds = 0.5;

/// Per-layer work counts every --trace 1 result carries, with their units.
/// A workload that does not reach a layer reports 0 for its counts.
const std::pair<const char *, const char *> CountMetrics[] = {
    {"opt_passes_run", "count"},   {"native_insts", "count"},
    {"opt_memo_hit_pct", "%"},     {"vm_compiles", "count"},
    {"vm_interpreted_pct", "%"},   {"collect_records", "count"},
    {"train_solves", "count"},     {"serve_cache_hit_pct", "%"},
    {"serve_batch_fill", "count"},
};

double seconds(uint64_t Ns) { return (double)Ns * 1e-9; }

uint64_t counterValue(const char *Name) {
  return jitml::MetricRegistry::global().counter(Name).value();
}

/// Registry counters read around the measured window.
struct RegistryCounts {
  uint64_t MemoHits = 0, MemoMisses = 0, VmCompiles = 0;
  static RegistryCounts read() {
    return {counterValue("opt.memo.hits"), counterValue("opt.memo.misses"),
            counterValue("vm.sync_compiles")};
  }
  RegistryCounts operator-(const RegistryCounts &O) const {
    return {MemoHits - O.MemoHits, MemoMisses - O.MemoMisses,
            VmCompiles - O.VmCompiles};
  }
  RegistryCounts &operator+=(const RegistryCounts &O) {
    MemoHits += O.MemoHits;
    MemoMisses += O.MemoMisses;
    VmCompiles += O.VmCompiles;
    return *this;
  }
};

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <compile|startup|learn|serve> "
               "--seed <n> --seconds <s> --trace <0|1>\n");
  return 2;
}

} // namespace

int main(int argc, char **argv) {
  std::string Name;
  uint64_t Seed = 0;
  double Seconds = 0.0;
  int Trace = -1;
  for (int I = 1; I + 1 < argc; I += 2) {
    const char *Key = argv[I], *Val = argv[I + 1];
    if (!std::strcmp(Key, "--workload"))
      Name = Val;
    else if (!std::strcmp(Key, "--seed"))
      Seed = std::strtoull(Val, nullptr, 10);
    else if (!std::strcmp(Key, "--seconds"))
      Seconds = std::strtod(Val, nullptr);
    else if (!std::strcmp(Key, "--trace"))
      Trace = std::atoi(Val);
    else
      return usage();
  }
  if (argc % 2 == 0 || !(Seconds > 0.0) || (Trace != 0 && Trace != 1))
    return usage();

  std::unique_ptr<Workload> W = makeWorkload(Name);
  if (!W)
    return usage();
  std::vector<double> SetupS;
  auto TimeSetup = [&](Workload &X) {
    uint64_t T0 = nowNs();
    X.setup(Seed);
    SetupS.push_back(seconds(nowNs() - T0));
  };
  TimeSetup(*W);

  Samples Warm;
  W->measure(WarmupSeconds, 1, {}, nullptr, Warm);

  // The other set-ups run between slices of the measured loop, each on a
  // fresh workload. A set-up is one shot, so, like an operation, it is
  // taken at its fastest: the host's speed drifts in episodes of seconds,
  // and set-ups spread over the run reach its undisturbed stretches. Their
  // registry counts are kept out of the loop's.
  RegistryCounts InSetup{};
  auto Between = [&] {
    RegistryCounts A = RegistryCounts::read();
    TimeSetup(*makeWorkload(Name));
    InSetup += RegistryCounts::read() - A;
  };
  RegistryCounts R0 = RegistryCounts::read();
  Ledger Led;
  Samples S;
  W->measure(Seconds, SetupReps, Between, Trace ? &Led : nullptr, S);
  RegistryCounts Loop = RegistryCounts::read() - R0 - InSetup;
  double SetupFastest = *std::min_element(SetupS.begin(), SetupS.end());

  std::string Why;
  bool Correct = Warm.Incorrect == 0 && S.Incorrect == 0;
  if (!Correct)
    Why = Name + ": an operation returned a wrong result";
  Correct = W->finalCheck(Why) && Correct;

  std::vector<std::pair<std::string, std::pair<double, const char *>>> Out;
  auto Put = [&Out](const std::string &Metric, double V, const char *Unit) {
    Out.push_back({Metric, {V, Unit}});
  };
  if (!Trace) {
    Put("latency_ms", S.LatencyMs, "ms");
    Put("p75_ms", S.P75Ms, "ms");
    Put("ops_per_s", S.OpsPerS, "1/s");
    Put("setup_s", SetupFastest, "s");
  } else {
    Put("traced_latency_ms", S.LatencyMs, "ms");
    double Root = (double)Led.rootNs();
    for (unsigned K = 0; K < NumLayers; ++K)
      Put(layerMetric((Layer)K),
          Root > 0 ? 100.0 * (double)Led.selfNs((Layer)K) / Root : 0.0, "%");
    std::map<std::string, double> Counts;
    uint64_t Memo = Loop.MemoHits + Loop.MemoMisses;
    Counts["opt_memo_hit_pct"] =
        Memo ? 100.0 * (double)Loop.MemoHits / (double)Memo : 0.0;
    Counts["vm_compiles"] =
        S.Attempted ? (double)Loop.VmCompiles / (double)S.Attempted : 0.0;
    W->layerCounts(Counts);
    for (const auto &[Metric, Unit] : CountMetrics) {
      auto It = Counts.find(Metric);
      Put(Metric, It == Counts.end() ? 0.0 : It->second, Unit);
    }
  }

  std::fprintf(stderr,
               "perfbench: %s seed %llu: %llu ops over %llu inputs (%llu "
               "failed), median %.4f ms, setup %.3f s%s%s\n",
               Name.c_str(), (unsigned long long)Seed,
               (unsigned long long)S.Attempted, (unsigned long long)S.Inputs,
               (unsigned long long)S.Failed, S.LatencyMs, SetupFastest,
               Correct ? "" : ", INCORRECT: ", Correct ? "" : Why.c_str());

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              Correct ? "true" : "false", (unsigned long long)S.Attempted,
              (unsigned long long)S.Failed);
  for (size_t I = 0; I < Out.size(); ++I)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                I ? ", " : "", Out[I].first.c_str(), Out[I].second.first,
                Out[I].second.second);
  std::printf("}}\n");
  return 0;
}
