//===- bench/fuzz_differential.cpp ----------------------------------------===//
//
// Driver for the coverage-guided differential fuzzer (src/verify/). Two
// modes:
//
//   default          run a seeded campaign: mutate generated programs,
//                    execute each through the interpreter, every sync opt
//                    level (twice, for clock determinism) and the async
//                    pipeline, with the deep IL verifier interposed after
//                    every pass. Any divergence is auto-reduced and, when
//                    --corpus is given, written as a .repro file. Exit
//                    status 1 when a divergence was found.
//
//   --overhead-gate  prove the interposition hook is free when
//                    JITML_VERIFY_IL is off: measure the disabled-path
//                    cost (one relaxed mode load + branch), count the
//                    hook crossings the Figure 6 workload performs (Count
//                    mode), and gate on crossings x cost / wall < 3%,
//                    plus bit-identical checksums and simulated cycles
//                    Off vs Count.
//
// Knobs (flags override env):
//   JITML_GEN_SEED     / --seed N      campaign + generator seed
//   JITML_FUZZ_BUDGET  / --execs N     max oracle executions
//                        --seconds N   wall-clock budget
//                        --faults SPEC --fault-seed N   inject bugs
//                        --corpus DIR  write reduced repros here
//                        --json PATH   write the campaign's or the gate's
//                                      figures to PATH (nothing otherwise)
//
//===----------------------------------------------------------------------===//

#include "runtime/VirtualMachine.h"
#include "support/FaultInjection.h"
#include "support/Telemetry.h"
#include "verify/DifferentialFuzzer.h"
#include "verify/PassVerifier.h"
#include "workloads/Workload.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

using namespace jitml;
using namespace jitml::verify;

namespace {

double nowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint64_t envU64(const char *Name, uint64_t Default) {
  const char *V = std::getenv(Name);
  if (!V || !*V)
    return Default;
  return std::strtoull(V, nullptr, 10);
}

struct SuiteResult {
  double WallSeconds = 0.0;
  int64_t Checksum = 0;
  double WallCycles = 0.0;
};

/// One sync pass over the Figure 6 suite (bit-deterministic run-to-run,
/// so Off vs Count must agree exactly).
SuiteResult runFig6Suite() {
  SuiteResult R;
  double Start = nowSeconds();
  for (const WorkloadSpec &Spec : specJvm98Suite()) {
    Program P = buildWorkload(Spec);
    VirtualMachine::Config Cfg;
    VirtualMachine VM(P, Cfg);
    ExecResult Res = VM.run({Value::ofI(0)});
    if (Res.Exceptional) {
      std::fprintf(stderr, "%s raised an exception\n", Spec.Code.c_str());
      continue;
    }
    R.Checksum ^= Res.Ret.I;
    R.WallCycles += VM.stats().totalCycles();
  }
  R.WallSeconds = nowSeconds() - Start;
  return R;
}

int runOverheadGate(const char *JsonPath) {
  std::printf("IL-verifier overhead: disabled interposition hook and the "
              "Fig. 6 workload gate\n\n");

  // 1. Disabled-path cost. This is exactly what every pass pays when
  // JITML_VERIFY_IL is unset: one relaxed load of the mode cell plus a
  // predicted-not-taken branch.
  setVerifyIlMode(VerifyIlMode::Off);
  constexpr size_t Iters = 8 * 1000 * 1000;
  double Best = 1e30;
  for (int Rep = 0; Rep < 3; ++Rep) {
    double Start = nowSeconds();
    uint64_t Sink = 0;
    for (size_t I = 0; I < Iters; ++I)
      Sink += verifyIlMode() != VerifyIlMode::Off;
    double Elapsed = nowSeconds() - Start;
    if (Sink != 0)
      std::abort(); // defeat dead-code elimination
    Best = std::min(Best, Elapsed * 1e9 / (double)Iters);
  }
  std::printf("%-34s %8.3f ns/op\n", "mode check (off)", Best);

  // 2. Baseline run with the hook disabled, then a Count-mode run: same
  // workload, every crossing bumps verify.checks but nothing is verified.
  SuiteResult Off = runFig6Suite();
  TelemetryCounter &Checks = MetricRegistry::global().counter("verify.checks");
  uint64_t ChecksBefore = Checks.value();
  setVerifyIlMode(VerifyIlMode::Count);
  SuiteResult Count = runFig6Suite();
  setVerifyIlMode(VerifyIlMode::Off);
  uint64_t Crossings = Checks.value() - ChecksBefore;

  double OverheadFrac =
      Off.WallSeconds > 0.0
          ? ((double)Crossings * Best * 1e-9) / Off.WallSeconds
          : 0.0;
  std::printf("\nFig. 6 workload: wall %.3fs, %llu verifier-hook "
              "crossings\n",
              Off.WallSeconds, (unsigned long long)Crossings);
  std::printf("estimated disabled-path share of wall clock: %.5f%% "
              "(gate: <3%%)\n",
              100.0 * OverheadFrac);

  // 3. Figures unaffected: counting crossings must not perturb results or
  // simulated time.
  bool ChecksumOk = Off.Checksum == Count.Checksum;
  bool CyclesOk = Off.WallCycles == Count.WallCycles;
  std::printf("count mode: checksum %s, simulated cycles %s\n",
              ChecksumOk ? "identical" : "MISMATCH",
              CyclesOk ? "bit-identical" : "MISMATCH");

  bool GateOk = OverheadFrac < 0.03;
  if (std::FILE *F = JsonPath ? std::fopen(JsonPath, "w") : nullptr) {
    std::fprintf(F,
                 "{\n"
                 "  \"mode_check_off_ns\": %.4f,\n"
                 "  \"fig6_wall_s\": %.6f,\n"
                 "  \"fig6_verify_crossings\": %llu,\n"
                 "  \"overhead_fraction\": %.8f,\n"
                 "  \"checksum_identical\": %s,\n"
                 "  \"cycles_identical\": %s,\n"
                 "  \"gate_under_3pct\": %s\n"
                 "}\n",
                 Best, Off.WallSeconds, (unsigned long long)Crossings,
                 OverheadFrac, ChecksumOk ? "true" : "false",
                 CyclesOk ? "true" : "false", GateOk ? "true" : "false");
    std::fclose(F);
    std::printf("\nwrote %s\n", JsonPath);
  }
  if (!GateOk || !ChecksumOk || !CyclesOk) {
    std::fprintf(stderr, "FAIL: IL-verifier overhead gate\n");
    return 1;
  }
  std::printf("PASS: disabled verifier hook costs <3%% of the Fig. 6 "
              "workload\n");
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  FuzzCampaignConfig Cfg;
  Cfg.Seed = envU64("JITML_GEN_SEED", 1);
  Cfg.MaxExecs = envU64("JITML_FUZZ_BUDGET", 1000);
  const char *JsonPath = nullptr; ///< --json: no file without it
  bool Gate = false;

  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    auto Next = [&]() -> const char * {
      if (I + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", Arg.c_str());
        std::exit(2);
      }
      return argv[++I];
    };
    if (Arg == "--overhead-gate")
      Gate = true;
    else if (Arg == "--seed")
      Cfg.Seed = std::strtoull(Next(), nullptr, 10);
    else if (Arg == "--execs")
      Cfg.MaxExecs = std::strtoull(Next(), nullptr, 10);
    else if (Arg == "--seconds")
      Cfg.MaxSeconds = std::strtod(Next(), nullptr);
    else if (Arg == "--faults")
      Cfg.FaultSpec = Next();
    else if (Arg == "--fault-seed")
      Cfg.FaultSeed = std::strtoull(Next(), nullptr, 10);
    else if (Arg == "--corpus")
      Cfg.CorpusDir = Next();
    else if (Arg == "--no-reduce")
      Cfg.Reduce = false;
    else if (Arg == "--max-divergences")
      Cfg.MaxDivergences = (unsigned)std::strtoul(Next(), nullptr, 10);
    else if (Arg == "--json")
      JsonPath = Next();
    else if (Arg == "-v" || Arg == "--verbose")
      Cfg.Verbose = true;
    else {
      std::fprintf(stderr,
                   "usage: %s [--overhead-gate] [--seed N] [--execs N] "
                   "[--seconds S] [--faults SPEC [--fault-seed N]] "
                   "[--corpus DIR] [--no-reduce] [--max-divergences N] "
                   "[--json PATH] [-v]\n",
                   argv[0]);
      return 2;
    }
  }

  if (Gate)
    return runOverheadGate(JsonPath);

  if (!Cfg.FaultSpec.empty() &&
      !FaultRegistry::global().arm(Cfg.FaultSpec, Cfg.FaultSeed)) {
    std::fprintf(stderr, "bad fault spec '%s'\n", Cfg.FaultSpec.c_str());
    return 2;
  }

  std::printf("differential fuzz: seed %llu, budget %llu execs%s\n",
              (unsigned long long)Cfg.Seed,
              (unsigned long long)Cfg.MaxExecs,
              Cfg.FaultSpec.empty()
                  ? ""
                  : (" (faults: " + Cfg.FaultSpec + ")").c_str());
  double Start = nowSeconds();
  FuzzCampaignResult Res = runFuzzCampaign(Cfg);
  double Wall = nowSeconds() - Start;
  FaultRegistry::global().disarm();

  std::printf("%llu execs in %.2fs (%.0f/s), %u coverage bits, pool %u, "
              "%zu divergence(s)\n",
              (unsigned long long)Res.Execs, Wall,
              Wall > 0 ? (double)Res.Execs / Wall : 0.0, Res.CoverageBits,
              Res.PoolSize, Res.Divergences.size());
  for (const Divergence &D : Res.Divergences) {
    std::printf("  [%s] %s\n", divergenceKindName(D.Result.Kind),
                D.Result.Detail.c_str());
    if (D.WasReduced)
      std::printf("    reduced: %s\n",
                  serializeFuzzInput(D.Reduced).c_str());
    if (!D.CorpusFile.empty())
      std::printf("    corpus:  %s\n", D.CorpusFile.c_str());
  }

  if (std::FILE *F = JsonPath ? std::fopen(JsonPath, "w") : nullptr) {
    std::fprintf(F,
                 "{\n"
                 "  \"seed\": %llu,\n"
                 "  \"execs\": %llu,\n"
                 "  \"wall_s\": %.3f,\n"
                 "  \"coverage_bits\": %u,\n"
                 "  \"pool\": %u,\n"
                 "  \"divergences\": %zu\n"
                 "}\n",
                 (unsigned long long)Cfg.Seed,
                 (unsigned long long)Res.Execs, Wall, Res.CoverageBits,
                 Res.PoolSize, Res.Divergences.size());
    std::fclose(F);
  }
  return Res.Divergences.empty() ? 0 : 1;
}
