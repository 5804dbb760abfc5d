//===- tests/exec/ExecGoldenTest.cpp - golden hashes of simulated results -===//
//
// Pins every simulated number the execution engines produce, so a change
// to how the interpreter or the native executor runs (host speed, frame
// storage, heap layout) cannot move a figure unnoticed. Each case runs one
// SPECjvm98/DaCapo stand-in three ways — interpreter only, the adaptive
// JIT with the null modifier, and the adaptive JIT with a seeded modifier
// per (method, level) — under two clock seeds for three iterations, and
// hashes everything a figure or a collection record could read:
//
//   * every return value and exception flag;
//   * the bits of AppCycles and CompileCycles, the clock's cycle total,
//     its migration count and current core;
//   * the VM's invocation, compile and exception counters;
//   * the heap's cell and byte counts.
//
// A last case runs one small instrumented collection (the TSC-sampled
// enter/exit profiling of section 4.2) and trains models from it; it
// hashes every collected record and the text of every trained model.
//
// The constants are the simulated results the paper's figures rest on.
// Host-speed work on the engines must leave them unchanged; only a change
// that deliberately re-baselines the simulated figures may update them.
// On a mismatch the test prints the hash it computed.
//
//===----------------------------------------------------------------------===//

#include "jitml/Training.h"
#include "runtime/VirtualMachine.h"
#include "support/Rng.h"
#include "workloads/Workload.h"

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>

using namespace jitml;

namespace {

/// FNV-1a over 64-bit words and strings.
class Fnv {
public:
  void add(uint64_t V) {
    for (int B = 0; B < 8; ++B) {
      H ^= (V >> (8 * B)) & 0xff;
      H *= 0x100000001b3ULL;
    }
  }
  void addBits(double D) {
    uint64_t Bits;
    std::memcpy(&Bits, &D, sizeof(Bits));
    add(Bits);
  }
  void add(const std::string &S) {
    add((uint64_t)S.size());
    for (unsigned char C : S) {
      H ^= C;
      H *= 0x100000001b3ULL;
    }
  }
  uint64_t value() const { return H; }

private:
  uint64_t H = 0xcbf29ce484222325ULL;
};

std::string hex(uint64_t V) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "0x%016" PRIx64, V);
  return Buf;
}

enum class Mode { Interpreter, NullJit, SeededJit };

/// A fixed, arbitrary modifier per (method, level).
PlanModifier seededModifier(uint32_t Method, OptLevel Level) {
  uint64_t Bits = mix64(0x90de5eedULL ^ ((uint64_t)Method << 8) ^
                        (uint64_t)Level);
  return PlanModifier::fromRaw(Bits & ((1ULL << NumTransformations) - 1));
}

void runCase(const Program &P, Mode M, uint64_t ClockSeed, Fnv &H) {
  VirtualMachine::Config Cfg;
  Cfg.Clock.Seed = ClockSeed;
  Cfg.EnableJit = M != Mode::Interpreter;
  VirtualMachine VM(P, Cfg);
  if (M == Mode::SeededJit)
    VM.setModifierHook(
        [](uint32_t Method, OptLevel Level, const FeatureVector &) {
          return seededModifier(Method, Level);
        });
  for (unsigned I = 0; I < 3; ++I) {
    ExecResult R = VM.run({Value::ofI((int64_t)I)});
    H.add(R.Exceptional ? 1 : 0);
    H.add(R.Exceptional ? (uint64_t)R.ExcRef : (uint64_t)R.Ret.I);
  }
  const VirtualMachine::Stats &S = VM.stats();
  H.addBits(S.AppCycles);
  H.addBits(S.CompileCycles);
  H.addBits(VM.clock().cycles());
  H.add(VM.clock().migrations());
  H.add(VM.clock().currentCore());
  H.add(S.Compilations);
  H.add(S.Invocations);
  H.add(S.InterpretedInvocations);
  H.add(S.ExceptionsRaised);
  H.add((uint64_t)VM.heap().numCells());
  H.add(VM.heap().bytesAllocated());
}

/// Golden hash per benchmark code.
const std::map<std::string, uint64_t> &goldenRuns() {
  static const std::map<std::string, uint64_t> G = {
      {"co", 0xe28c1325e575f054}, {"js", 0x6497d33d2fc26b83},
      {"db", 0xf2c4dc4226fe549f}, {"jc", 0x4e7544022b13df3b},
      {"mp", 0x8d70f8d8c14a04db}, {"mt", 0xe7f979803ea59eff},
      {"rt", 0xb1029282b84ce06b}, {"jk", 0xbfdb0969ad784c77},
      {"av", 0x15e151e2260c1f57}, {"ba", 0xececf01c5d49ea4b},
      {"ec", 0x91ff4961ca766d73}, {"fo", 0xd36a2de23f64543f},
      {"h2", 0xac798911163e04bb}, {"jy", 0x70ae9842b95a177b},
      {"lu", 0xa227439aea11edb3}, {"ls", 0xcfc5606e44f83b1f},
      {"pm", 0x92d76b41054229bf}, {"sf", 0xdd1a2bd8d8c084bb},
      {"tc", 0x73457c47fbf870d3}, {"xa", 0x79b27861cec088db},
  };
  return G;
}

std::vector<std::string> allCodes() {
  std::vector<std::string> Out;
  for (const WorkloadSpec &S : specJvm98Suite())
    Out.push_back(S.Code);
  for (const WorkloadSpec &S : daCapoSuite())
    Out.push_back(S.Code);
  return Out;
}

class ExecGolden : public ::testing::TestWithParam<std::string> {};

} // namespace

TEST_P(ExecGolden, SimulatedResultsMatchRecordedHash) {
  const WorkloadSpec &Spec = workloadByCode(GetParam());
  Program P = buildWorkload(Spec);
  Fnv H;
  for (Mode M : {Mode::Interpreter, Mode::NullJit, Mode::SeededJit})
    for (uint64_t ClockSeed : {42ULL, 0x5eed0002ULL})
      runCase(P, M, ClockSeed, H);
  auto It = goldenRuns().find(Spec.Code);
  uint64_t Want = It == goldenRuns().end() ? 0 : It->second;
  EXPECT_EQ(hex(H.value()), hex(Want)) << "benchmark " << Spec.Code;
}

INSTANTIATE_TEST_SUITE_P(Suites, ExecGolden, ::testing::ValuesIn(allCodes()),
                         [](const ::testing::TestParamInfo<std::string> &I) {
                           return I.param;
                         });

TEST(ExecGoldenLearn, CollectedRecordsAndModelsMatchRecordedHash) {
  CollectConfig CC;
  CC.Iterations = 6;
  CC.ModifiersPerLevel = 8;
  CC.UsesPerModifier = 2;
  CC.MaxRecompilesPerMethod = 20;
  IntermediateDataSet Data = collectWithStrategy(
      workloadByCode("db"), CC, SearchStrategy::Randomized);
  ASSERT_GT(Data.size(), 0u);

  Fnv H;
  H.add((uint64_t)Data.size());
  for (const TaggedRecord &T : Data.Records) {
    const CollectionRecord &R = T.Record;
    H.add(T.SourceTag);
    H.add(T.Signature);
    H.add(R.SignatureId);
    H.add((uint64_t)R.Level);
    H.add(R.ModifierBits);
    H.add(R.Features.hash());
    H.addBits(R.CompileCycles);
    H.addBits(R.RunCycles);
    H.add(R.Invocations);
    H.add(R.DiscardedSamples);
  }
  ModelSet Models = trainModelSet(Data, "golden", TrainConfig());
  for (unsigned L = 0; L < NumOptLevels; ++L) {
    const LevelModel &LM = Models.Levels[L];
    H.add(LM.Valid ? 1 : 0);
    if (!LM.Valid)
      continue;
    H.add(LM.Scale.toText());
    H.add(LM.Labels.toText());
    H.add(LM.Model.toText());
  }
  EXPECT_EQ(hex(H.value()), hex(0x4a71bcb77452429e));
}
