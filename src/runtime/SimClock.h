//===- runtime/SimClock.h - Simulated multi-core time-stamp counter -*-C++*-=//
///
/// \file
/// Deterministic substitute for the x86 TSC used by the paper's profiling
/// (section 4.2): a cycle counter advanced by the executor plus a
/// multi-core model with per-core frequency skew and periodic thread
/// migration (the Linux load balancer moves threads "roughly once every
/// 200 ms; in practice ... once every few seconds"). readTimestamp() is the
/// rdtscp analogue: it returns both the core-local TSC value and the core
/// id, so the instrumentation can detect cross-core samples and discard
/// them exactly as the paper's collection infrastructure does.
///
//===----------------------------------------------------------------------===//

#ifndef JITML_RUNTIME_SIMCLOCK_H
#define JITML_RUNTIME_SIMCLOCK_H

#include "support/Rng.h"

#include <cstdint>
#include <vector>

namespace jitml {

/// A TSC sample: counter value plus the core it was read on (rdtscp).
struct TscSample {
  uint64_t Tsc = 0;
  uint32_t CoreId = 0;
};

class SimClock {
public:
  struct Config {
    unsigned NumCores = 8;
    /// Relative per-core frequency skew magnitude (TSC drift source).
    double SkewMagnitude = 2e-4;
    /// Mean cycles between thread migrations.
    double MigrationPeriod = 2e7;
    uint64_t Seed = 42;
  };

  SimClock() : SimClock(Config{}) {}
  explicit SimClock(const Config &C);

  /// Advances simulated time by \p C cycles (fractional cycles
  /// accumulate). Inline because the engines charge once per executed
  /// instruction; only a crossed migration point leaves the fast path.
  void advance(double C) { advanceTo(Cycles + C); }

  /// Sets the total to \p Total, which an engine accumulated from cycles()
  /// with its own additions, and performs every migration it reached.
  void advanceTo(double Total) {
    Cycles = Total;
    if (Cycles >= NextMigration)
      migrate();
  }

  /// The cycle total at which the next thread migration happens.
  double nextMigration() const { return NextMigration; }

  /// Total cycles elapsed since construction.
  double cycles() const { return Cycles; }

  /// rdtscp: the current core's TSC and its id. Migration between two
  /// reads shows up as a core-id change (and a drifted counter).
  TscSample readTimestamp();

  uint32_t currentCore() const { return Core; }
  uint64_t migrations() const { return Migrations; }

private:
  /// Performs every migration whose point the total has reached.
  void migrate();

  Config Cfg;
  Rng R;
  double Cycles = 0.0;
  uint32_t Core = 0;
  double NextMigration = 0.0;
  uint64_t Migrations = 0;
  std::vector<double> CoreRate;   ///< cycles -> core TSC rate
  std::vector<double> CoreOffset; ///< per-core TSC base offset
};

} // namespace jitml

#endif // JITML_RUNTIME_SIMCLOCK_H
