//===- cgen/CEmit.h - C source emission -------------------------*- C++ -*-===//
///
/// \file
/// The final backend step for the CPU target (paper Section 2.3): the
/// compiler "generates Cuda/C code ... further compiled using Nvcc or
/// Clang into a shared library". This module emits a self-contained C
/// translation unit for a Low-- procedure. All state is passed through
/// a generated frame struct whose layout is described by FrameField
/// metadata, so the host engine can populate it from Values and call
/// the compiled procedure through one fixed signature:
///
///   void <proc>(augur_frame *f);
///
/// Statements that need the matrix runtime or library sampling
/// (MvNormal/InvWishart operations, conjugate posterior draws) are not
/// emitted; emitC fails for such procedures and the engine falls back
/// to interpretation — native compilation targets the hot likelihood /
/// gradient primitives.
///
//===----------------------------------------------------------------------===//

#ifndef AUGUR_CGEN_CEMIT_H
#define AUGUR_CGEN_CEMIT_H

#include <string>
#include <vector>

#include "density/Eval.h"
#include "lowpp/LowppIR.h"

namespace augur {

/// One field of the generated frame struct, in declaration order.
struct FrameField {
  enum class Kind {
    RealPtr,    ///< double*: scalar slot or flat payload
    IntPtr,     ///< long long*: scalar slot or flat payload
    OffsetsPtr, ///< long long*: ragged row offsets
    Length,     ///< long long by value: flat vector length
  };
  Kind K;
  std::string Var;    ///< source variable this field belongs to
  std::string CName;  ///< member name in the struct
};

/// An emitted C module. The frame struct's first member is the host
/// table pointer (`augur_host *host`), followed by \c Fields.
struct CModule {
  std::string ProcName;
  std::string Source;
  std::vector<FrameField> Fields;
};

/// Emission options. By default every loop is a plain sequential
/// loop. With Pooled set, top-level Par/AtmPar loops are outlined into
/// chunk functions that the host runs on its pool through the frame's
/// host table, map-reduce loops hand the host their privatized targets,
/// and the remaining shared AtmPar accumulations become atomic adds.
/// The module itself owns no threads.
struct CEmitOptions {
  bool Pooled = false;
  /// Annotate Par loop bodies for host-compiler vectorization
  /// (`#pragma GCC ivdep` — Par loops are independent across
  /// iterations by construction, so the no-alias promise is sound).
  /// AtmPar loops are never annotated: their atomic read-modify-write
  /// accumulations carry loop-carried dependences by design.
  bool Simd = false;
};

/// Emits C for \p P. \p E supplies the shapes/kinds of the globals the
/// procedure references. Fails (with a reason) on constructs outside
/// the native subset.
Result<CModule> emitC(const LowppProc &P, const Env &E,
                      const CEmitOptions &Opts = CEmitOptions());

} // namespace augur

#endif // AUGUR_CGEN_CEMIT_H
