//===- il/ILGenerator.h - Bytecode -> tree IL -------------------*- C++ -*-===//
///
/// \file
/// The IL Generator of Figure 1: converts verified stack bytecode into the
/// tree-form IL by abstract interpretation of the operand stack. Runtime
/// checks (null, bounds, division, cast) become explicit treetops; calls and
/// allocations are anchored at their bytecode position so evaluation order
/// is preserved under the IL's evaluate-at-first-reference (DAG) semantics;
/// values live across block boundaries are spilled to synthetic locals.
///
//===----------------------------------------------------------------------===//

#ifndef JITML_IL_ILGENERATOR_H
#define JITML_IL_ILGENERATOR_H

#include "il/MethodIL.h"

#include <memory>
#include <vector>

namespace jitml {

/// Generates the IL for \p MethodIndex. The bytecode must already verify;
/// malformed input trips assertions rather than returning errors.
std::unique_ptr<MethodIL> generateIL(const Program &P, uint32_t MethodIndex);

/// generateIL's output for each method of one program, generated on first
/// request and never modified afterwards. Readers of a method's IL share
/// the one copy; a compile optimizes a MethodIL::clone() of it.
///
/// The IL is kept as generated, before frequency annotation: the inliner
/// sets an inlined block's frequency to the caller block's times the
/// callee block's raw one, so annotated callee IL would change the code.
///
/// Not safe for concurrent use, not even by readers alone:
/// countLiveNodes() fills a mutable cache. Each compiling thread owns its
/// own ILCache. The Program must not change while the cache lives.
class ILCache {
public:
  explicit ILCache(const Program &P) : Prog(P), ILs(P.numMethods()) {}

  const Program &program() const { return Prog; }

  /// The IL of \p MethodIndex, generated on the first call. The reference
  /// stays valid for the cache's lifetime.
  const MethodIL &get(uint32_t MethodIndex);

private:
  const Program &Prog;
  std::vector<std::unique_ptr<MethodIL>> ILs;
};

} // namespace jitml

#endif // JITML_IL_ILGENERATOR_H
