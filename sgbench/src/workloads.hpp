// The three workloads.  Each fills `out` with its operations and metrics;
// with args.trace it also records spans into `spans` and writes its
// per-layer detail (per-grid budget, machine) into out.detail.
#pragma once

#include "common.hpp"

namespace sgbench {

/// Root 2, level 7, le_tol 1e-3, banded LU: solve_sequential then
/// solve_concurrent on the threads substrate (the paper's Table-1 family).
void run_paper_l7(const Args& args, Outcome& out, SpanLog& spans);

/// Root 2, level 10, le_tol 1e-3, BiCGSTAB+ILU(0): combine-bound.
void run_combine_l10(const Args& args, Outcome& out, SpanLog& spans);

/// SolveEngine with 4 lanes over 4 forked TCP workers: an open loop of small
/// jobs with cancels, then bursts.
void run_svc_tcp(const Args& args, Outcome& out, SpanLog& spans);

}  // namespace sgbench
