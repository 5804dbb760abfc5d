//===- perfbench/Workloads.h - The benchmark's workloads -------*- C++ -*-===//
///
/// \file
/// Four workloads, each stressing a different part of the system:
///
///  * compile — the JIT compile path for one (method, level, modifier)
///    cell the startup workload's VMs compile, with the modifiers of its
///    model and of seven further ones: IL generation, feature extraction,
///    optimizer, code generation.
///  * startup — one fresh VirtualMachine start-up invocation with the
///    learned model choosing every compile's plan (a Figure 6 cell).
///  * learn   — one learning cycle: collectWithStrategy, then
///    trainModelSet.
///  * serve   — model round trips from eight clients to one serving
///    daemon over Unix-domain sockets, replaying the model requests the
///    startup workload's VMs make.
///
/// Every input is generated from the run's seed; the program under test
/// sees only the generated inputs.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "Ledger.h"

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/// What one measured run observed. The host's speed drifts over seconds
/// (other tenants share its cores), so latencies are taken from each
/// input's fastest run: an operation's cost on an undisturbed host.
struct Samples {
  double LatencyMs = 0.0; ///< median over inputs of their fastest run
  double P75Ms = 0.0;     ///< 75th percentile of the same: the highest
                          ///< with ten inputs above it on startup
  double OpsPerS = 0.0;   ///< one pass over the inputs at their fastest
  uint64_t Inputs = 0;    ///< inputs (or windows) the figures cover
  uint64_t Attempted = 0;
  uint64_t Failed = 0;    ///< operations that returned no result
  uint64_t Incorrect = 0; ///< operations whose result was wrong
};

/// Linear-interpolated quantile \p Q of an ascending vector.
double quantile(const std::vector<double> &Sorted, double Q);

class Workload {
public:
  virtual ~Workload() = default;

  /// Builds the inputs and references from \p Seed (timed as setup_s).
  virtual void setup(uint64_t Seed) = 0;

  /// Runs operations for \p Seconds and records them into \p Out. The
  /// time is cut into \p Slices equal slices with \p Between called from
  /// the calling thread between them, outside the measured time. Work
  /// counts restart with every call.
  virtual void measure(double Seconds, unsigned Slices,
                       const std::function<void()> &Between, Ledger *L,
                       Samples &Out) = 0;

  /// Checks made once after measuring (e.g. compiled code run against the
  /// interpreter). Returns false with \p Why set on a wrong result.
  virtual bool finalCheck(std::string &Why) = 0;

  /// Per-layer work counts of the last measure() call, by metric name.
  virtual void layerCounts(std::map<std::string, double> &Out) const = 0;
};

/// The workload called \p Name, or null for an unknown name.
std::unique_ptr<Workload> makeWorkload(const std::string &Name);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
