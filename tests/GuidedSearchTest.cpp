//===- tests/GuidedSearchTest.cpp - future-work guided search tests -------===//

#include "jitml/Training.h"
#include "modifiers/GuidedSearch.h"
#include "runtime/VirtualMachine.h"
#include "verify/PassVerifier.h"
#include "workloads/Workload.h"

#include <gtest/gtest.h>

using namespace jitml;

namespace {

constexpr TransformationKind BadPass = TransformationKind::Rematerialization;
constexpr TransformationKind GoodPass = TransformationKind::ConstantFolding;

/// Synthetic world: disabling BadPass improves V by 30%, disabling
/// GoodPass worsens it by 30%, everything else is neutral.
double syntheticV(const PlanModifier &M, Rng &Noise) {
  double V = 1000.0;
  if (M.disables(BadPass))
    V *= 0.7;
  if (M.disables(GoodPass))
    V *= 1.3;
  return V * (1.0 + 0.02 * Noise.nextGaussian());
}

} // namespace

TEST(GuidedSearch, LearnsWhichBitsToDisable) {
  GuidedSearch Search;
  Rng R(42), Noise(7);
  // Feed 300 randomized experiments with synthetic outcomes.
  for (int I = 0; I < 300; ++I) {
    PlanModifier M;
    for (unsigned K = 0; K < NumTransformations; ++K)
      if (R.nextBool(0.35))
        M.disable((TransformationKind)K);
    Search.noteOutcome(OptLevel::Warm, M, syntheticV(M, Noise));
  }
  double PBad = Search.disableProbability(OptLevel::Warm, BadPass);
  double PGood = Search.disableProbability(OptLevel::Warm, GoodPass);
  double PNeutral = Search.disableProbability(
      OptLevel::Warm, TransformationKind::JumpThreading);
  EXPECT_GT(PBad, 0.3) << "harmful pass should be disabled aggressively";
  EXPECT_LT(PGood, 0.06) << "beneficial pass should stay enabled";
  EXPECT_NEAR(PNeutral, 0.12, 0.1);
  // Proposals reflect the learned bias.
  unsigned BadDisabled = 0, GoodDisabled = 0;
  for (int I = 0; I < 400; ++I) {
    PlanModifier M = Search.propose(R, OptLevel::Warm);
    BadDisabled += M.disables(BadPass) ? 1 : 0;
    GoodDisabled += M.disables(GoodPass) ? 1 : 0;
  }
  EXPECT_GT(BadDisabled, GoodDisabled * 2);
}

TEST(GuidedSearch, LevelsAreIndependent) {
  GuidedSearch Search;
  Rng Noise(9);
  for (int I = 0; I < 100; ++I) {
    PlanModifier M;
    M.disable(BadPass);
    Search.noteOutcome(OptLevel::Hot, M, 500.0);
    PlanModifier Null;
    Search.noteOutcome(OptLevel::Hot, Null, 1000.0);
  }
  (void)Noise;
  EXPECT_GT(Search.disableProbability(OptLevel::Hot, BadPass), 0.4);
  // Warm saw nothing: still at the base probability.
  EXPECT_NEAR(Search.disableProbability(OptLevel::Warm, BadPass), 0.12,
              1e-9);
  EXPECT_EQ(Search.observations(OptLevel::Warm), 0u);
  EXPECT_EQ(Search.observations(OptLevel::Hot), 200u);
}

TEST(GuidedSearch, UntrustedBitsStayAtBase) {
  GuidedSearch Search;
  PlanModifier M;
  M.disable(BadPass);
  // Fewer than MinSamplesPerBit observations on the disabled side.
  Search.noteOutcome(OptLevel::Cold, M, 1.0);
  Search.noteOutcome(OptLevel::Cold, PlanModifier(), 100.0);
  EXPECT_NEAR(Search.disableProbability(OptLevel::Cold, BadPass), 0.12,
              1e-9);
}

TEST(GuidedSearch, ProposalsSurviveVerifiedPipelineEdges) {
  // Edge plans under search-proposed modifiers, with the deep IL verifier
  // interposed after every pass (default abort handler: completing the
  // test is the structural assertion; the checksum is the semantic one).
  // Covers the empty plan and the scorching/all-bits extremes that the
  // search can and does propose once it has learned to distrust nothing.
  verify::VerifyIlMode Saved = verify::verifyIlMode();
  verify::setVerifyIlMode(verify::VerifyIlMode::Full);

  Program P = buildWorkload(workloadByCode("co"));
  int64_t Reference = workloadChecksum(P, 1);
  std::vector<uint32_t> Kernels;
  for (uint32_t M = 0; M < P.numMethods(); ++M)
    if (P.methodAt(M).Name.find("Kernel") != std::string::npos)
      Kernels.push_back(M);

  GuidedSearch Search;
  Rng R(314);
  CompilationPlan Empty; // zero entries
  Empty.Level = OptLevel::Hot;
  std::vector<const CompilationPlan *> Plans{
      &Empty, &planForLevel(OptLevel::Scorching)};
  for (int I = 0; I < 4; ++I) {
    PlanModifier Mod = Search.propose(R, OptLevel::Hot);
    for (const CompilationPlan *Plan : Plans) {
      VirtualMachine::Config Cfg;
      Cfg.Control.Enabled = false;
      VirtualMachine VM(P, Cfg);
      for (uint32_t M : Kernels)
        VM.compileWithPlan(M, *Plan, Mod);
      ExecResult Res = VM.run({Value::ofI(0)});
      ASSERT_FALSE(Res.Exceptional);
      EXPECT_EQ((int64_t)mix64((uint64_t)Res.Ret.I), Reference)
          << "plan size " << Plan->size() << " modifier "
          << Mod.enabledMask().toString();
      Search.noteOutcome(OptLevel::Hot, Mod, 100.0);
    }
  }
  verify::setVerifyIlMode(Saved);
}

TEST(GuidedStrategy, ServesAndExhaustsWithinBudget) {
  StrategyConfig Cfg;
  Cfg.Strategy = SearchStrategy::Guided;
  Cfg.ModifiersPerLevel = 10;
  Cfg.UsesPerModifier = 2;
  StrategyControl SC(Cfg);
  unsigned Nulls = 0, NonNulls = 0;
  for (int I = 0; I < 30; ++I) {
    PlanModifier M = SC.modifierFor((uint32_t)I, OptLevel::Warm);
    (M.isNull() ? Nulls : NonNulls) += 1;
    SC.noteOutcome(OptLevel::Warm, M, 100.0);
  }
  EXPECT_GT(Nulls, 8u); // every third slot + exhaustion tail
  EXPECT_GT(NonNulls, 10u);
  EXPECT_FALSE(SC.explorationExhausted()); // other levels still fresh
  for (unsigned L = 0; L < NumOptLevels; ++L)
    for (int I = 0; I < 40; ++I)
      (void)SC.modifierFor(1000 + I, (OptLevel)L);
  EXPECT_TRUE(SC.explorationExhausted());
}

TEST(GuidedStrategy, EndToEndCollectionProducesRecords) {
  CollectConfig CC;
  CC.Iterations = 10;
  CC.ModifiersPerLevel = 16;
  CC.UsesPerModifier = 2;
  IntermediateDataSet Data =
      collectWithStrategy(workloadByCode("mt"), CC, SearchStrategy::Guided);
  EXPECT_GT(Data.size(), 30u);
  // The guided run explored beyond the null modifier.
  std::set<uint64_t> Modifiers;
  for (const TaggedRecord &T : Data.Records)
    Modifiers.insert(T.Record.ModifierBits);
  EXPECT_GT(Modifiers.size(), 5u);
}
