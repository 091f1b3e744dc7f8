// Source annotations for the bentolint invariant analyzer (DESIGN.md §10).
//
// These macros expand to nothing: they exist so tools/bentolint can see, at
// the definition site, which build-time contract a function is under. They
// cost zero code, zero data, and zero runtime. What BENTO_HOT promises is
// checked again at run time: tests/alloc_test.cpp counts 0 allocations per
// cell through the annotated datapath.
//
//   BENTO_HOT            This function is on the per-cell / per-event fast
//                        path and must not heap-allocate (the PR 2
//                        0-allocs/cell guarantee). bentolint BL102 flags
//                        operator new, make_shared/make_unique, growing
//                        container calls and allocating std:: type
//                        construction inside it — lambdas included.
//
//   BENTO_DETERMINISTIC  This function participates in seed-determinism
//                        outside src/ (inside src/ the whole tree is under
//                        the DESIGN.md §9 replay contract and needs no
//                        annotation). bentolint BL101 flags wall-clock and
//                        entropy reads inside it: sim time must come from
//                        util/simclock.hpp, randomness from the seeded Rng.
//
//   BENTO_FRAMED         This function commits store frames to durable
//                        media (src/store log format, DESIGN.md §15).
//                        bentolint BL109 requires every call to the
//                        write_frame primitive to sit inside a
//                        BENTO_FRAMED function that also performs a crc32
//                        update — the every-frame-carries-a-CRC invariant
//                        torn-write recovery depends on.
//
// Escape hatch, always with a reason:
//   // bentolint: allow(BL102 pool refill, amortized across 64 events)
// on the violating line or the line above; `allow-file(...)` for a whole
// file. A bare allow() without a reason is itself a diagnostic (BL100).
#pragma once

#define BENTO_HOT
#define BENTO_DETERMINISTIC
#define BENTO_FRAMED
