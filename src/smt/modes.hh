/**
 * @file
 * Solver execution modes for the per-pair SMT enumeration.
 *
 * The pipeline's canonical enumeration issues a sequence of solver
 * calls per test pair (coverage-pinned `solveWith` probes, plain
 * `solve`, model-blocking clauses).  Two modes run that sequence:
 *
 *  - `Incremental` (default): one live SmtSolver per pair; every call
 *    reuses the solver's clause database — consecutive canonical
 *    queries differ only in assumption literals (the bit-blaster
 *    memoizes the temporary constraint's selector literal, so a
 *    repeated `solveWith` is a pure `solveAssuming`).
 *  - `Oneshot`: the pre-incremental behaviour — a fresh solver per
 *    test, brought up to date by replaying the pair's recorded op
 *    log.  Kept as the bench_hotpath baseline and as a cross-check
 *    that incremental state reuse does not change any result.
 *
 * Both modes produce byte-identical campaign artifacts (metrics JSON,
 * coverage JSON, ExperimentDb CSV); ctest enforces this (see
 * ARCHITECTURE.md, determinism invariants).  The mode is chosen
 * through `core::PipelineConfig::solverMode`.
 */

#ifndef SCAMV_SMT_MODES_HH
#define SCAMV_SMT_MODES_HH

namespace scamv::smt {

/** How the pipeline drives the SMT solver per test pair. */
enum class SolverMode {
    Oneshot,    ///< fresh solver per test, op-log replay
    Incremental ///< live solver reused across the pair's tests
};

/** @return the mode's name ("oneshot" or "incremental"). */
inline const char *
solverModeName(SolverMode mode)
{
    return mode == SolverMode::Oneshot ? "oneshot" : "incremental";
}

} // namespace scamv::smt

#endif // SCAMV_SMT_MODES_HH
