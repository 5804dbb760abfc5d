//===- tests/CompileGoldenTest.cpp - golden hashes of the compile path ----===//
//
// Pins everything the JIT compile path produces, so work on its host speed
// (the tables ilgen, the passes and codegen build) cannot move a compile
// unnoticed. A cell is one method compiled at one level under one
// modifier, the way a compile request runs it: generateIL, frequency
// annotation, extractFeatures, optimize, generateCode. Each cell hashes
//
//   * printMethodIL of the freshly generated IL and of the optimized IL;
//   * the feature vector's hash;
//   * printNativeMethod of the code;
//   * the bits of the optimizer's and codegen's CompileCycles and of the
//     code's ICacheFactor, and the plan entries run and changed.
//
// Cells: every method of the 20 SPECjvm98/DaCapo stand-ins at all five
// levels, under the null modifier and five seeded modifiers; then the
// corpus's differential programs and a fixed set of seeded fuzz programs,
// each also under its own modifier.
//
// The constants are the compiles the simulated figures rest on. Only a
// change that deliberately alters what the compiler emits may update
// them. On a mismatch the test prints the hash it computed.
//
//===----------------------------------------------------------------------===//

#include "codegen/CodeGenerator.h"
#include "codegen/CostModel.h"
#include "codegen/NativeInst.h"
#include "features/FeatureExtractor.h"
#include "il/ILGenerator.h"
#include "il/ILPrinter.h"
#include "il/LoopInfo.h"
#include "opt/Optimizer.h"
#include "opt/PassContext.h"
#include "support/Rng.h"
#include "verify/Corpus.h"
#include "verify/ProgramMutator.h"
#include "workloads/Workload.h"

#include "TestPrograms.h"

#include <gtest/gtest.h>

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>

using namespace jitml;

#ifndef JITML_CORPUS_DIR
#define JITML_CORPUS_DIR "tests/corpus"
#endif

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

constexpr unsigned SeededModifiers = 5;

/// A fixed, arbitrary modifier per (method, level, draw).
BitSet64 seededMask(uint32_t Method, OptLevel Level, unsigned Draw) {
  uint64_t Bits = mix64(0xc0de5eedULL ^ ((uint64_t)Method << 16) ^
                        ((uint64_t)Level << 8) ^ (uint64_t)Draw);
  return PlanModifier::fromRaw(Bits & ((1ULL << NumTransformations) - 1))
      .enabledMask();
}

/// One cell: compile \p Method of \p P at \p Level under \p Mask.
void hashCell(const Program &P, uint32_t Method, OptLevel Level,
              const BitSet64 &Mask, Fnv &H) {
  std::unique_ptr<MethodIL> IL = generateIL(P, Method);
  H.add(printMethodIL(*IL));
  LoopInfo::annotateFrequencies(*IL);
  H.add(extractFeatures(*IL).hash());
  OptimizeResult R = optimize(*IL, planForLevel(Level), Mask);
  H.add(printMethodIL(*IL));
  NativeMethod N =
      generateCode(*IL, R.CodegenOptions, Level, CostModel::defaults());
  H.add(printNativeMethod(N));
  H.addBits(R.CompileCycles);
  H.addBits(N.CompileCycles);
  H.addBits(N.ICacheFactor);
  H.add(R.EntriesRun);
  H.add(R.EntriesSkippedInapplicable);
  H.add(R.ChangedPasses.bits().raw());
}

/// Every level of \p Method under the null modifier and the seeded ones,
/// plus \p Extra when given (a fuzz input's own modifier).
void hashMethod(const Program &P, uint32_t Method, Fnv &H,
                const BitSet64 *Extra = nullptr) {
  for (unsigned L = 0; L < NumOptLevels; ++L) {
    OptLevel Level = (OptLevel)L;
    hashCell(P, Method, Level, BitSet64::allOne(NumTransformations), H);
    for (unsigned D = 0; D < SeededModifiers; ++D)
      hashCell(P, Method, Level, seededMask(Method, Level, D), H);
    if (Extra)
      hashCell(P, Method, Level, *Extra, H);
  }
}

/// Golden hash per benchmark code.
const std::map<std::string, uint64_t> &goldenCompiles() {
  static const std::map<std::string, uint64_t> G = {
      {"co", 0x1d24746765be424a}, {"js", 0x3b38ff67abae829a},
      {"db", 0x30ab7a1d89e49934}, {"jc", 0xd7ec0e9e686b10f4},
      {"mp", 0x7cd72fb73acf9a7c}, {"mt", 0x0d52de7358348c2a},
      {"rt", 0x436b99c7975800cd}, {"jk", 0x3fea4cac6de22918},
      {"av", 0xe3f301a72485574f}, {"ba", 0xa69dd4d9b21e2faf},
      {"ec", 0x99d3c967a54b8c67}, {"fo", 0x1d78c457534b2dc6},
      {"h2", 0xcabc4a34e06ad582}, {"jy", 0x2f8ed782596e0294},
      {"lu", 0x9cc5941879de9fac}, {"ls", 0x93668e1651c15363},
      {"pm", 0x15c3fd3f1fe99fb9}, {"sf", 0x57cebcbeaf09a35c},
      {"tc", 0xcbf0db939abd56ea}, {"xa", 0xa3e89110df9e00cb},
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

class CompileGolden : public ::testing::TestWithParam<std::string> {};

} // namespace

TEST_P(CompileGolden, EveryCellMatchesRecordedHash) {
  const WorkloadSpec &Spec = workloadByCode(GetParam());
  Program P = buildWorkload(Spec);
  Fnv H;
  for (uint32_t M = 0; M < P.numMethods(); ++M)
    hashMethod(P, M, H);
  auto It = goldenCompiles().find(Spec.Code);
  uint64_t Want = It == goldenCompiles().end() ? 0 : It->second;
  EXPECT_EQ(hex(H.value()), hex(Want)) << "benchmark " << Spec.Code;
}

INSTANTIATE_TEST_SUITE_P(Suites, CompileGolden,
                         ::testing::ValuesIn(allCodes()),
                         [](const ::testing::TestParamInfo<std::string> &I) {
                           return I.param;
                         });

TEST(CompileGoldenExtra, CorpusAndSeededFuzzProgramsMatchRecordedHash) {
  std::vector<verify::FuzzInput> Inputs;
  for (const std::string &Path :
       verify::listCorpusFiles(JITML_CORPUS_DIR)) {
    verify::CorpusEntry E;
    ASSERT_TRUE(verify::readCorpusFile(Path, E)) << Path;
    if (E.Kind == "differential")
      Inputs.push_back(E.Input);
  }
  ASSERT_FALSE(Inputs.empty()) << "no differential corpus entry";
  for (uint64_t Seed = 1; Seed <= 24; ++Seed)
    Inputs.push_back(verify::ProgramMutator(Seed).seedInput(32 + 8 * Seed));

  Fnv H;
  for (const verify::FuzzInput &In : Inputs) {
    Program P;
    uint32_t M = verify::buildFuzzProgram(P, In);
    BitSet64 Own = PlanModifier::fromRaw(In.ModifierRaw).enabledMask();
    hashMethod(P, M, H, &Own);
  }
  EXPECT_EQ(hex(H.value()), hex(0xcf55fc5cfe501485));
}

// Global value numbering keys a candidate by its whole tree. Two Const
// doubles are one value when their bits match, with one exception: all
// NaNs of one sign are one value. +0.0 and -0.0 stay two values.
namespace {

/// m(x) = { a = x + C1; goto next; next: b = x + C2; return a + b; }
/// with the two sums in different blocks, so only GVN can common them.
uint32_t gvnChanges(double C1, double C2) {
  Program P;
  MethodBuilder MB(P, "m", -1, MF_Static | MF_Public, {DataType::Double},
                   DataType::Double);
  uint32_t A = MB.addLocal(DataType::Double);
  uint32_t B = MB.addLocal(DataType::Double);
  auto Next = MB.newLabel();
  MB.load(0).constF(DataType::Double, C1).binop(BcOp::Add, DataType::Double);
  MB.store(A);
  MB.gotoLabel(Next);
  MB.place(Next);
  MB.load(0).constF(DataType::Double, C2).binop(BcOp::Add, DataType::Double);
  MB.store(B);
  MB.load(A).load(B).binop(BcOp::Add, DataType::Double);
  MB.retValue(DataType::Double);
  uint32_t M = MB.finish();
  auto IL = generateIL(P, M);
  PassContext Ctx(*IL);
  runTransformation(Ctx, TransformationKind::GlobalValueNumbering);
  return Ctx.changesOf(TransformationKind::GlobalValueNumbering);
}

double nanWithPayload(uint64_t Payload, bool Negative) {
  uint64_t Bits = 0x7ff8000000000000ULL | (Payload & 0x7ffffffffffffULL);
  if (Negative)
    Bits |= 0x8000000000000000ULL;
  double D;
  std::memcpy(&D, &Bits, sizeof(D));
  return D;
}

} // namespace

TEST(GvnKey, EqualConstantsAreOneValue) {
  EXPECT_EQ(gvnChanges(1.5, 1.5), 1u);
  EXPECT_EQ(gvnChanges(1.5, 2.5), 0u);
}

TEST(GvnKey, NaNsOfOneSignAreOneValueWhateverThePayload) {
  double N1 = nanWithPayload(1, false), N2 = nanWithPayload(0x1234, false);
  ASSERT_TRUE(std::isnan(N1) && std::isnan(N2));
  EXPECT_EQ(gvnChanges(N1, N2), 1u);
  EXPECT_EQ(gvnChanges(nanWithPayload(7, true), nanWithPayload(9, true)), 1u);
  EXPECT_EQ(gvnChanges(N1, nanWithPayload(1, true)), 0u);
}

TEST(GvnKey, SignedZerosAreTwoValues) {
  EXPECT_EQ(gvnChanges(0.0, -0.0), 0u);
  EXPECT_EQ(gvnChanges(-0.0, -0.0), 1u);
}
