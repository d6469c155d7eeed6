//===- api/PolicyFrontEnd.h - Policy-specialized check dispatch -*- C++ -*-===//
//
// Part of the EffectiveSan reproduction. Released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The devirtualized check front end of the session API. Instead of one
/// CheckPolicy switch executed per check (the pre-PR-3 design, ~1ns on
/// the micro bench and a mispredict hazard on mixed-policy processes),
/// every policy gets one straight-line instantiation of each check
/// entry point, collected into a CheckDispatch table. A session resolves
/// its table once at construction; per check it pays exactly one
/// indirect call into branch-free code.
///
/// The semantics per policy are unchanged from the switch (see
/// api/CheckPolicy.h):
///
///   Full       — the paper's type_check / bounds_check / bounds_narrow;
///   BoundsOnly — typeCheck degrades to bounds_get, narrowing is a
///                no-op (allocation bounds only);
///   TypeOnly   — type checks run, bounds operations are no-ops;
///   CountOnly  — counters advance, nothing is probed or reported;
///   Off        — nothing happens at all.
///
//===----------------------------------------------------------------------===//

#ifndef EFFECTIVE_API_POLICYFRONTEND_H
#define EFFECTIVE_API_POLICYFRONTEND_H

#include "api/CheckPolicy.h"
#include "core/Runtime.h"

namespace effective {

/// One policy's check entry points. All functions are stateless — the
/// session passes the calling thread's check context, which names its
/// runtime — so the five tables are immutable process-wide constants.
struct CheckDispatch {
  Bounds (*TypeCheck)(CheckContext &CC, const void *Ptr,
                      const TypeInfo *StaticType, SiteId Site);
  Bounds (*BoundsGet)(CheckContext &CC, const void *Ptr, SiteId Site);
  void (*BoundsCheck)(CheckContext &CC, const void *Ptr, size_t Size,
                      Bounds B, SiteId Site);
  Bounds (*BoundsNarrow)(CheckContext &CC, Bounds B, const void *Field,
                         size_t Size);
};

/// The dispatch table for \p Policy (a reference into an immutable
/// static array; valid forever).
const CheckDispatch &checkDispatchFor(CheckPolicy Policy);

} // namespace effective

#endif // EFFECTIVE_API_POLICYFRONTEND_H
