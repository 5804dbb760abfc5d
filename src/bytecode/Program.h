//===- bytecode/Program.h - Classes, methods, whole programs ---*- C++ -*-===//
///
/// \file
/// The loaded-program model the VM executes and the JIT compiles: classes
/// with single inheritance, fields and name-resolved vtables; methods with
/// bytecode, exception tables and the attribute flags the feature extractor
/// reads (Table 1); program-level globals and an entry point.
///
//===----------------------------------------------------------------------===//

#ifndef JITML_BYTECODE_PROGRAM_H
#define JITML_BYTECODE_PROGRAM_H

#include "bytecode/Opcode.h"
#include "bytecode/Type.h"

#include <cassert>
#include <cstdint>
#include <string>
#include <vector>

namespace jitml {

/// Method attribute flags. The first group mirrors the binary attributes of
/// Table 1 that come straight from the source declaration.
enum MethodFlag : uint32_t {
  MF_Constructor = 1u << 0,
  MF_Final = 1u << 1,
  MF_Protected = 1u << 2,
  MF_Public = 1u << 3,
  MF_Static = 1u << 4,
  MF_Synchronized = 1u << 5,
  MF_StrictFP = 1u << 6,
  /// Set when the runtime recompiles the method because an override was
  /// loaded dynamically ("Virtual method overridden" in Table 1).
  MF_VirtualOverridden = 1u << 7,
};

/// Special roles a class can play; calling into such classes sets the
/// corresponding Table 1 attribute on the caller ("Unsafe symbols?",
/// "Uses BigDecimal?").
enum class ClassKind : uint8_t {
  Normal = 0,
  /// Stands in for sun.misc.Unsafe: inlining its methods blocks
  /// redundant-load elimination.
  UnsafeIntrinsic,
  /// Stands in for java.math.BigDecimal: arbitrary-precision arithmetic
  /// that is a poor rematerialization candidate.
  BigDecimal,
};

/// One try/catch region in bytecode index space. [StartPc, EndPc) is the
/// protected range; ClassIndex restricts the caught type (-1 catches all).
struct ExceptionEntry {
  uint32_t StartPc = 0;
  uint32_t EndPc = 0;
  uint32_t HandlerPc = 0;
  int32_t ClassIndex = -1;
};

/// A method: signature, attribute flags, locals layout and bytecode.
/// Locals [0, NumArgs) hold the arguments (slot 0 is the receiver for
/// instance methods); the rest are temporaries.
struct MethodInfo {
  std::string Name;            ///< unqualified name
  int32_t ClassIndex = -1;     ///< owning class, -1 for free functions
  uint32_t Flags = 0;
  std::vector<DataType> ArgTypes; ///< includes the receiver when instance
  DataType ReturnType = DataType::Void;
  uint32_t NumLocals = 0;      ///< total local slots (args + temporaries)
  std::vector<DataType> LocalTypes; ///< type of every local slot
  std::vector<BcInst> Code;
  std::vector<ExceptionEntry> ExceptionTable;
  /// Filled in by the verifier; the VM verifies a method it finds at 0
  /// before interpreting it (a program may skip the verifier).
  uint32_t MaxStack = 0;

  bool hasFlag(MethodFlag F) const { return (Flags & F) != 0; }
  bool isStatic() const { return hasFlag(MF_Static); }
  unsigned numArgs() const { return (unsigned)ArgTypes.size(); }
};

/// A class: name, super class, instance field types and its methods.
struct ClassInfo {
  std::string Name;
  int32_t SuperIndex = -1;
  ClassKind Kind = ClassKind::Normal;
  std::vector<DataType> FieldTypes; ///< includes inherited fields (flattened)
  std::vector<uint32_t> Methods;    ///< method indices declared here
};

/// A whole program: the unit the VM loads and runs.
class Program {
public:
  /// Adds a class; returns its index. Fields of the super class must already
  /// be included in \p FieldTypes (the builder takes care of that).
  uint32_t addClass(ClassInfo C);
  /// Adds a method; returns its index and registers it with its class.
  uint32_t addMethod(MethodInfo M);
  /// Registers a bodyless prototype so recursive / mutually-recursive call
  /// sites can reference the method before its body exists; the body is
  /// supplied later via defineMethod.
  uint32_t declarePrototype(MethodInfo M) { return addMethod(std::move(M)); }
  /// Installs the body built for a previously declared prototype.
  void defineMethod(uint32_t Index, MethodInfo M);

  uint32_t numClasses() const { return (uint32_t)Classes.size(); }
  uint32_t numMethods() const { return (uint32_t)Methods.size(); }
  uint32_t numGlobals() const { return (uint32_t)GlobalTypes.size(); }

  const ClassInfo &classAt(uint32_t I) const {
    assert(I < Classes.size() && "class index out of range");
    return Classes[I];
  }
  ClassInfo &classAt(uint32_t I) {
    assert(I < Classes.size() && "class index out of range");
    return Classes[I];
  }
  const MethodInfo &methodAt(uint32_t I) const {
    assert(I < Methods.size() && "method index out of range");
    return Methods[I];
  }
  MethodInfo &methodAt(uint32_t I) {
    assert(I < Methods.size() && "method index out of range");
    return Methods[I];
  }

  /// Adds a program global of type \p T; returns its slot.
  uint32_t addGlobal(DataType T) {
    GlobalTypes.push_back(T);
    return (uint32_t)GlobalTypes.size() - 1;
  }
  DataType globalType(uint32_t I) const {
    assert(I < GlobalTypes.size() && "global index out of range");
    return GlobalTypes[I];
  }

  void setEntryMethod(uint32_t M) { EntryMethod = (int32_t)M; }
  int32_t entryMethod() const { return EntryMethod; }

  /// True when \p Sub equals \p Super or derives from it.
  bool isSubclassOf(int32_t Sub, int32_t Super) const;

  /// Resolves a virtual call: the most-derived override of method
  /// \p DeclaredMethod when the receiver's dynamic class is \p DynClass.
  /// Overrides are matched by method name, as in a name-keyed vtable.
  uint32_t resolveVirtual(uint32_t DeclaredMethod, uint32_t DynClass) const;

  /// True when any loaded subclass of the declaring class overrides
  /// \p MethodIndex; such calls cannot be devirtualized.
  bool isOverridden(uint32_t MethodIndex) const;

  /// "ClassName.name(argTypes)returnType" — the signature string interned
  /// into archive dictionaries.
  std::string signatureOf(uint32_t MethodIndex) const;

private:
  std::vector<ClassInfo> Classes;
  std::vector<MethodInfo> Methods;
  std::vector<DataType> GlobalTypes;
  int32_t EntryMethod = -1;
};

} // namespace jitml

#endif // JITML_BYTECODE_PROGRAM_H
