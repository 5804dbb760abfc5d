//===- runtime/SimClock.cpp -----------------------------------------------===//

#include "runtime/SimClock.h"

#include <cmath>

using namespace jitml;

SimClock::SimClock(const Config &C) : Cfg(C), R(C.Seed) {
  CoreRate.resize(Cfg.NumCores);
  CoreOffset.resize(Cfg.NumCores);
  for (unsigned I = 0; I < Cfg.NumCores; ++I) {
    // Each core's TSC ticks at a slightly different rate and starts from a
    // different base — the "TSC drift" condition of section 4.2.
    CoreRate[I] = 1.0 + Cfg.SkewMagnitude * (R.nextDouble() * 2.0 - 1.0);
    CoreOffset[I] = (double)R.nextBelow(1u << 20);
  }
  Core = (uint32_t)R.nextBelow(Cfg.NumCores);
  NextMigration = Cfg.MigrationPeriod * (0.5 + R.nextDouble());
}

void SimClock::migrate() {
  while (Cycles >= NextMigration) {
    uint32_t NewCore = (uint32_t)R.nextBelow(Cfg.NumCores);
    if (NewCore != Core)
      ++Migrations;
    Core = NewCore;
    NextMigration += Cfg.MigrationPeriod * (0.5 + R.nextDouble());
  }
}

TscSample SimClock::readTimestamp() {
  TscSample S;
  S.CoreId = Core;
  S.Tsc = (uint64_t)std::llround(Cycles * CoreRate[Core] + CoreOffset[Core]);
  return S;
}
