// Host-speed normalization for the benchmark's wall-clock figures.
//
// On a shared host the CPU's speed drifts by half and more over seconds to
// tens of seconds (a vCPU's sibling threads belong to other tenants), which
// no run length averages away. The benchmark therefore times a fixed
// reference task next to the workload and scales every wall and CPU time
// it reports by
//
//     speed factor = reference time now / reference time on a quiet core
//
// i.e. to what the figure would have been on a quiet core of the host the
// constants were taken on. The reference is one task of each kind of work
// the workloads spend their CPU on — SHA-256 hashing, 128-bit shift-add
// modular multiplication, and small allocations in an ordered map — each
// timed against its own quiet time, averaged. It is private code: no change
// to the program moves it. Raw figures are printed beside the normalized
// ones.
#pragma once

namespace perfbench {

/// Runs the reference task once; returns the mean of its parts' times over
/// their quiet times (1 on a quiet core, above 1 while the host is slow).
double speed_factor();

}  // namespace perfbench
