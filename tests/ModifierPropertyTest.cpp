//===- tests/ModifierPropertyTest.cpp - the central correctness property --===//
//
// THE invariant the whole framework rests on: *any* compilation-plan
// modifier applied at *any* optimization level produces code that computes
// exactly what the interpreter computes. Data collection compiles methods
// with thousands of random modifiers; a single semantics-changing
// transformation combination would poison the training data (the paper had
// to discard crashing sessions — our compiler must simply be correct).
//
// Parameterized sweep: (training benchmark) x (level) x seeded random
// modifiers, plus the all-disabled and null modifiers.
//
//===----------------------------------------------------------------------===//

#include "bytecode/Builder.h"
#include "runtime/VirtualMachine.h"
#include "verify/PassVerifier.h"
#include "workloads/Workload.h"

#include <gtest/gtest.h>

using namespace jitml;

namespace {

/// gtest writes the parameter's raw bytes into every test's listing, and
/// ctest into the test's name. The struct therefore holds no pointer (a
/// std::string's would move from build to build) and no padding, so the
/// names are the same in every build. It stays 40 bytes, the size of its
/// earlier std::string form, so the veryHot and scorching names, whose
/// first 100 characters end before the bytes, are unchanged.
struct SweepCase {
  char Code[39];
  OptLevel Level;
};
static_assert(sizeof(SweepCase) == 40, "SweepCase must have no padding");

SweepCase sweepCase(const std::string &Code, OptLevel Level) {
  SweepCase C{};
  Code.copy(C.Code, sizeof(C.Code) - 1);
  C.Level = Level;
  return C;
}

std::string caseName(const ::testing::TestParamInfo<SweepCase> &Info) {
  return std::string(Info.param.Code) + "_" + optLevelName(Info.param.Level);
}

} // namespace

class ModifierSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(ModifierSweep, AnyModifierPreservesSemantics) {
  const SweepCase &Param = GetParam();
  Program P = buildWorkload(workloadByCode(Param.Code));

  // Reference checksum from the pure interpreter.
  int64_t Reference = workloadChecksum(P, 1);

  // Kernels to force-compile with each modifier: every generated kernel
  // plus the driver.
  std::vector<uint32_t> Methods;
  for (uint32_t M = 0; M < P.numMethods(); ++M)
    if (P.methodAt(M).Name.find("Kernel") != std::string::npos ||
        P.methodAt(M).Name == "main")
      Methods.push_back(M);

  Rng R(mix64(0xabcdef ^ (uint64_t)Param.Level ^ P.numMethods()));
  std::vector<PlanModifier> Modifiers{
      PlanModifier(), // null: the original plan
      PlanModifier(BitSet64::allZero(NumTransformations)), // everything off
  };
  for (PlanModifier &M : generateRandomizedModifiers(R, 6))
    Modifiers.push_back(M);
  for (PlanModifier &M : generateProgressiveModifiers(R, 4))
    Modifiers.push_back(M);

  for (const PlanModifier &Mod : Modifiers) {
    VirtualMachine::Config Cfg;
    Cfg.Control.Enabled = false; // plans pinned by us
    VirtualMachine VM(P, Cfg);
    for (uint32_t M : Methods)
      VM.compileWithPlan(M, planForLevel(Param.Level), Mod);
    ExecResult Res = VM.run({Value::ofI(0)});
    ASSERT_FALSE(Res.Exceptional)
        << "modifier " << Mod.enabledMask().toString() << " threw";
    int64_t Got = (int64_t)mix64((uint64_t)Res.Ret.I);
    EXPECT_EQ(Got, Reference)
        << "modifier " << Mod.enabledMask().toString() << " at "
        << optLevelName(Param.Level) << " changed semantics";
  }
}

namespace {

std::vector<SweepCase> sweepCases() {
  std::vector<SweepCase> Cases;
  for (const WorkloadSpec &S : trainingBenchmarks())
    for (unsigned L = 0; L < NumOptLevels; ++L)
      Cases.push_back(sweepCase(S.Code, (OptLevel)L));
  // Two DaCapo-style benchmarks stress BCD and heavy dispatch.
  for (const char *Code : {"h2", "ec"})
    for (OptLevel L : {OptLevel::Warm, OptLevel::Scorching})
      Cases.push_back(sweepCase(Code, L));
  return Cases;
}

} // namespace

INSTANTIATE_TEST_SUITE_P(TrainingSuite, ModifierSweep,
                         ::testing::ValuesIn(sweepCases()), caseName);

// --- Degenerate plans and methods ----------------------------------------
//
// The sweep above covers realistic plans; these pin the boundary shapes.
// All of them compile with the deep IL verifier interposed after every
// pass (the default handler aborts the process on a violation, so merely
// finishing is the assertion).

namespace {

/// Scope guard: Full verify mode with the abort-on-failure default
/// handler, restored on exit.
struct FullVerifyScope {
  verify::VerifyIlMode Saved = verify::verifyIlMode();
  FullVerifyScope() { verify::setVerifyIlMode(verify::VerifyIlMode::Full); }
  ~FullVerifyScope() { verify::setVerifyIlMode(Saved); }
};

/// Methods with one-instruction bodies: `return 7` and `return arg`.
std::vector<uint32_t> addSingleInstructionMethods(Program &P) {
  std::vector<uint32_t> Out;
  {
    MethodBuilder MB(P, "retConst", -1, MF_Static | MF_Public, {},
                     DataType::Int32);
    MB.constI(DataType::Int32, 7).retValue(DataType::Int32);
    Out.push_back(MB.finish());
  }
  {
    MethodBuilder MB(P, "retArg", -1, MF_Static | MF_Public,
                     {DataType::Int32}, DataType::Int32);
    MB.load(0).retValue(DataType::Int32);
    Out.push_back(MB.finish());
  }
  return Out;
}

int64_t invokeCompiled(Program &P, uint32_t M, const CompilationPlan &Plan,
                       const PlanModifier &Mod, int64_t Arg) {
  VirtualMachine::Config Cfg;
  Cfg.Control.Enabled = false;
  VirtualMachine VM(P, Cfg);
  VM.compileWithPlan(M, Plan, Mod);
  std::vector<Value> Args;
  for (size_t I = 0; I < P.methodAt(M).ArgTypes.size(); ++I)
    Args.push_back(Value::ofI(Arg));
  ExecResult R = VM.invoke(M, Args);
  EXPECT_FALSE(R.Exceptional);
  return R.Ret.I;
}

} // namespace

TEST(ModifierEdge, EmptyPlanThroughVerifiedPipeline) {
  // A plan with zero entries: codegen consumes exactly what ilgen
  // produced. Every level tag is legal on an empty plan.
  FullVerifyScope Scope;
  Program P;
  std::vector<uint32_t> Methods = addSingleInstructionMethods(P);
  for (unsigned L = 0; L < NumOptLevels; ++L) {
    CompilationPlan Empty;
    Empty.Level = (OptLevel)L;
    EXPECT_EQ(invokeCompiled(P, Methods[0], Empty, PlanModifier(), 0), 7);
    EXPECT_EQ(invokeCompiled(P, Methods[1], Empty, PlanModifier(), -13),
              -13);
  }
}

TEST(ModifierEdge, AllBitsSetPlanThroughVerifiedPipeline) {
  // The densest configuration: the scorching plan (172 entries) with every
  // one of the 58 transformation bits enabled, on both a degenerate method
  // and a real workload kernel.
  FullVerifyScope Scope;
  PlanModifier AllOn =
      PlanModifier::fromRaw((1ULL << NumTransformations) - 1);
  ASSERT_TRUE(AllOn.isNull());
  Program P;
  std::vector<uint32_t> Methods = addSingleInstructionMethods(P);
  const CompilationPlan &Plan = planForLevel(OptLevel::Scorching);
  EXPECT_EQ(invokeCompiled(P, Methods[0], Plan, AllOn, 0), 7);
  EXPECT_EQ(invokeCompiled(P, Methods[1], Plan, AllOn, 42), 42);

  Program W = buildWorkload(workloadByCode("co"));
  int64_t Reference = workloadChecksum(W, 1);
  VirtualMachine::Config Cfg;
  Cfg.Control.Enabled = false;
  VirtualMachine VM(W, Cfg);
  for (uint32_t M = 0; M < W.numMethods(); ++M)
    if (W.methodAt(M).Name.find("Kernel") != std::string::npos)
      VM.compileWithPlan(M, Plan, AllOn);
  ExecResult Res = VM.run({Value::ofI(0)});
  ASSERT_FALSE(Res.Exceptional);
  EXPECT_EQ((int64_t)mix64((uint64_t)Res.Ret.I), Reference);
}

TEST(ModifierEdge, SingleInstructionMethodsSweepAllLevels) {
  // One-instruction bodies hit the degenerate ends of every pass's scan
  // loops (no loops, one block, no kills). Sweep all levels x {null,
  // all-disabled} under the interposed verifier.
  FullVerifyScope Scope;
  Program P;
  std::vector<uint32_t> Methods = addSingleInstructionMethods(P);
  PlanModifier AllOff{BitSet64::allZero(NumTransformations)};
  for (unsigned L = 0; L < NumOptLevels; ++L) {
    for (const PlanModifier &Mod : {PlanModifier(), AllOff}) {
      EXPECT_EQ(
          invokeCompiled(P, Methods[0], planForLevel((OptLevel)L), Mod, 0),
          7);
      EXPECT_EQ(invokeCompiled(P, Methods[1], planForLevel((OptLevel)L),
                               Mod, 1234),
                1234);
    }
  }
}
