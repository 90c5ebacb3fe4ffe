/**
 * @file
 * The application-level design linter (entry point of `vidi_lint`).
 *
 * lintApp() builds an application exactly as a recording run would
 * (R2: monitors + encoder + store), installs an ElabTracker, and runs a
 * short *calibration* execution under KernelMode::FullEval — the
 * reference schedule, so every module's eval() is invoked and its channel
 * accesses observed regardless of declared EvalMode. The observed design
 * is then elaborated into a DesignGraph and the four static passes run
 * over it (see lint_passes.h).
 *
 * With LintOptions::dynamic_checks, the calibration run additionally
 * arms every channel's ProtocolChecker and per-interface AXI ordering
 * checkers in Collect mode, and their violations are merged into the
 * same report as findings (passes "dynamic-protocol" / "dynamic-axi").
 *
 * LintOptions::monitor_mask deliberately mirrors VidiConfig::monitor_mask
 * so tests (and users sizing down recording) can observe exactly what
 * the boundary-coverage pass says about the resulting holes.
 */

#ifndef VIDI_LINT_LINTER_H
#define VIDI_LINT_LINTER_H

#include <cstdint>
#include <string>

#include "core/app_interface.h"
#include "lint/design_graph.h"
#include "lint/json.h"
#include "lint/lint_report.h"

namespace vidi {

/**
 * Tunables for one lintApp() invocation.
 */
struct LintOptions
{
    /** Workload scale for the calibration run (1.0 = bench default). */
    double scale = 0.1;

    /** Seed for the calibration run. */
    uint64_t seed = 1;

    /** Monitored-channel mask, as VidiConfig::monitor_mask. */
    uint64_t monitor_mask = ~0ull;

    /** Also run protocol/AXI checkers and merge their violations. */
    bool dynamic_checks = false;

    /** Cycle budget for the calibration run. */
    uint64_t max_cycles = 120'000'000;
};

/**
 * Result of linting one application.
 */
struct AppLintResult
{
    std::string app;
    LintReport report;
    /** Whether the calibration workload ran to completion. */
    bool completed = false;
    /** Cycles the calibration run took. */
    uint64_t cycles = 0;
    /** One-line design statistics (see DesignGraph::summary()). */
    std::string design_summary;

    std::string toString() const;
    JsonValue toJson() const;
};

/**
 * Build @p app for recording, calibrate, elaborate and lint it.
 *
 * Never throws for design problems — a calibration run that panics
 * (e.g. an unstable combinational loop tripping the settle bound)
 * becomes an Error finding and the static passes still run over
 * whatever was observed up to the panic.
 */
AppLintResult lintApp(AppBuilder &app, const LintOptions &opts = {});

} // namespace vidi

#endif // VIDI_LINT_LINTER_H
