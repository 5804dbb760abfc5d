//===- bytecode/Verifier.h - Bytecode well-formedness checks ---*- C++ -*-===//
///
/// \file
/// A dataflow verifier for the stack bytecode: checks branch targets, local
/// slot bounds, stack-depth consistency at join points and coarse type
/// agreement, and computes MethodInfo::MaxStack. The IL generator and the
/// interpreter both assume verified code.
///
//===----------------------------------------------------------------------===//

#ifndef JITML_BYTECODE_VERIFIER_H
#define JITML_BYTECODE_VERIFIER_H

#include "bytecode/Program.h"

#include <string>
#include <vector>

namespace jitml {

/// Outcome of verifying one method.
struct VerifyResult {
  std::vector<std::string> Errors;
  bool ok() const { return Errors.empty(); }
  /// All errors joined with newlines (empty string when clean).
  std::string message() const;
};

/// Stack effect of one instruction in the context of \p P (calls need
/// signatures). Returns false for malformed operands.
bool stackEffect(const Program &P, const MethodInfo &M, const BcInst &I,
                 unsigned &Pops, unsigned &Pushes);

/// Verifies method \p MethodIndex of \p P and fills in its MaxStack.
VerifyResult verifyMethod(Program &P, uint32_t MethodIndex);

/// Verifies without modifying \p P; on success stores the method's
/// maximum operand-stack depth in \p MaxStack.
VerifyResult checkMethod(const Program &P, uint32_t MethodIndex,
                         uint32_t &MaxStack);

/// Verifies every method; stops collecting after the first broken method
/// but always reports which one failed.
VerifyResult verifyProgram(Program &P);

} // namespace jitml

#endif // JITML_BYTECODE_VERIFIER_H
