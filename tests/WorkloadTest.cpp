//===- tests/WorkloadTest.cpp - workload generator tests (TEST_P sweep) ---===//

#include "bytecode/Verifier.h"
#include "runtime/VirtualMachine.h"
#include "workloads/Workload.h"

#include <gtest/gtest.h>

#include <stdexcept>

using namespace jitml;

TEST(WorkloadRegistry, SuitesMatchThePaper) {
  EXPECT_EQ(specJvm98Suite().size(), 8u);
  EXPECT_EQ(daCapoSuite().size(), 12u); // tradebeans/tradesoap excluded
  EXPECT_EQ(trainingBenchmarks().size(), 5u);
  // Training set: compress, db, mpegaudio, mtrt, raytrace.
  std::vector<std::string> Codes;
  for (const WorkloadSpec &S : trainingBenchmarks())
    Codes.push_back(S.Code);
  EXPECT_EQ(Codes, (std::vector<std::string>{"co", "db", "mp", "mt", "rt"}));
  EXPECT_EQ(workloadByCode("h2").Name, "h2");
  EXPECT_EQ(workloadByCode("jc").Name, "javac");
}

TEST(WorkloadRegistry, UnknownCodeIsRejected) {
  // "cp" is no workload's code. A lookup must not quietly stand in another
  // benchmark for it.
  EXPECT_THROW(workloadByCode("cp"), std::invalid_argument);
  EXPECT_THROW(workloadByCode(""), std::invalid_argument);
}

TEST(WorkloadRegistry, CodesUnique) {
  std::set<std::string> Codes;
  for (const WorkloadSpec &S : specJvm98Suite())
    EXPECT_TRUE(Codes.insert(S.Code).second) << S.Code;
  for (const WorkloadSpec &S : daCapoSuite())
    EXPECT_TRUE(Codes.insert(S.Code).second) << S.Code;
}

TEST(WorkloadGen, DeterministicPrograms) {
  const WorkloadSpec &Spec = workloadByCode("db");
  Program A = buildWorkload(Spec);
  Program B = buildWorkload(Spec);
  ASSERT_EQ(A.numMethods(), B.numMethods());
  for (uint32_t M = 0; M < A.numMethods(); ++M) {
    EXPECT_EQ(A.signatureOf(M), B.signatureOf(M));
    EXPECT_EQ(A.methodAt(M).Code.size(), B.methodAt(M).Code.size());
  }
  EXPECT_EQ(workloadChecksum(A, 2), workloadChecksum(B, 2));
}

//===----------------------------------------------------------------------===//
// Parameterized sweep: every benchmark in both suites verifies, runs
// deterministically, and computes the same checksum under the adaptive
// JIT as under the pure interpreter.
//===----------------------------------------------------------------------===//

class WorkloadSweep : public ::testing::TestWithParam<std::string> {};

TEST_P(WorkloadSweep, VerifiesAndMatchesInterpreter) {
  const WorkloadSpec &Spec = workloadByCode(GetParam());
  Program P = buildWorkload(Spec);
  ASSERT_TRUE(verifyProgram(P).ok()) << verifyProgram(P).message();
  EXPECT_GE(P.numMethods(), 10u);

  const unsigned Iterations = 2;
  int64_t Reference = workloadChecksum(P, Iterations);

  VirtualMachine::Config Cfg;
  VirtualMachine VM(P, Cfg);
  int64_t Jit = 0;
  for (unsigned I = 0; I < Iterations; ++I) {
    ExecResult R = VM.run({Value::ofI((int64_t)I)});
    ASSERT_FALSE(R.Exceptional);
    Jit = (int64_t)mix64((uint64_t)Jit ^ (uint64_t)R.Ret.I);
  }
  EXPECT_EQ(Jit, Reference) << "adaptive JIT changed program behavior";
  EXPECT_GT(VM.stats().Compilations, 0u);
}

namespace {

std::vector<std::string> allWorkloadCodes() {
  std::vector<std::string> Codes;
  for (const WorkloadSpec &S : specJvm98Suite())
    Codes.push_back(S.Code);
  for (const WorkloadSpec &S : daCapoSuite())
    Codes.push_back(S.Code);
  return Codes;
}

} // namespace

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, WorkloadSweep,
                         ::testing::ValuesIn(allWorkloadCodes()),
                         [](const auto &Info) { return Info.param; });
