#include "lint/linter.h"

#include <vector>

#include "axi/axi_checker.h"
#include "core/boundary.h"
#include "core/vidi_config.h"
#include "core/vidi_shim.h"
#include "host/host_dram.h"
#include "host/pcie_bus.h"
#include "lint/lint_passes.h"
#include "sim/access_tracker.h"
#include "sim/logging.h"
#include "sim/simulator.h"

namespace vidi {

namespace {

const char *
protocolViolationCode(ProtocolViolation::Kind kind)
{
    switch (kind) {
    case ProtocolViolation::Kind::ValidDropped: return "valid-dropped";
    case ProtocolViolation::Kind::DataUnstable: return "data-unstable";
    }
    return "protocol";
}

void
mergeDynamicFindings(const Simulator &sim,
                     const std::vector<const AxiGroupChecker *> &axi,
                     const std::vector<const LiteGroupChecker *> &lite,
                     LintReport &report)
{
    for (const auto &ch : sim.channels()) {
        for (const ProtocolViolation &v : ch->checker().violations()) {
            report.add(LintSeverity::Error, "dynamic-protocol",
                       protocolViolationCode(v.kind), v.channel,
                       v.message + " (cycle " + std::to_string(v.cycle) +
                           ")");
        }
    }
    auto mergeGroup = [&report](const std::string &name,
                                const std::vector<AxiOrderViolation> &vs) {
        for (const AxiOrderViolation &v : vs) {
            report.add(LintSeverity::Error, "dynamic-axi", "axi-ordering",
                       name,
                       v.message + " (cycle " + std::to_string(v.cycle) +
                           ")");
        }
    };
    for (const AxiGroupChecker *c : axi)
        mergeGroup(c->name(), c->violations());
    for (const LiteGroupChecker *c : lite)
        mergeGroup(c->name(), c->violations());
}

} // namespace

std::string
AppLintResult::toString() const
{
    std::string out = "== vidi_lint: " + app + " ==\n";
    out += design_summary + "\n";
    out += "calibration: " + std::to_string(cycles) + " cycles, " +
           (completed ? "workload completed" : "workload incomplete") +
           "\n";
    out += report.toString();
    return out;
}

JsonValue
AppLintResult::toJson() const
{
    JsonValue v = JsonValue::object();
    v.set("app", app);
    v.set("completed", completed);
    v.set("cycles", cycles);
    v.set("design", design_summary);
    v.set("report", report.toJson());
    return v;
}

AppLintResult
lintApp(AppBuilder &app, const LintOptions &opts)
{
    AppLintResult result;
    result.app = app.name();

    app.setScale(opts.scale);

    Simulator sim(opts.seed);
    // Calibration must use the reference schedule: every module's eval()
    // runs every settling pass, so the tracker observes the complete
    // read/drive sets — including those of modules the activity-driven
    // kernel would (possibly wrongly) skip.
    sim.setKernelMode(KernelMode::FullEval);

    HostMemory host;
    VidiConfig cfg;
    cfg.monitor_mask = opts.monitor_mask;
    cfg.kernel = KernelMode::FullEval;
    cfg.max_cycles = opts.max_cycles;

    PcieBus &pcie =
        sim.add<PcieBus>("pcie", cfg.pcie_bytes_per_sec, cfg.clock_hz);
    const F1Channels outer = makeF1Channels(sim, "outer");
    const F1Channels inner = makeF1Channels(sim, "inner");
    Boundary boundary = Boundary::fromF1(outer, inner);
    app.extendBoundary(sim, boundary, /*replaying=*/false);

    VidiShim shim(sim, std::move(boundary), VidiMode::R2_Record, host,
                  pcie, cfg);
    auto instance = app.build(sim, inner, &outer, &host, &pcie, opts.seed);

    std::vector<const AxiGroupChecker *> axi_checkers;
    std::vector<const LiteGroupChecker *> lite_checkers;
    if (opts.dynamic_checks) {
        for (const auto &ch : sim.channels())
            ch->checker().setMode(ProtocolChecker::Mode::Collect);
        using Mode = AxiGroupChecker::Mode;
        lite_checkers.push_back(&sim.add<LiteGroupChecker>(
            "lint.check.ocl", inner.ocl, Mode::Collect));
        lite_checkers.push_back(&sim.add<LiteGroupChecker>(
            "lint.check.sda", inner.sda, Mode::Collect));
        lite_checkers.push_back(&sim.add<LiteGroupChecker>(
            "lint.check.bar1", inner.bar1, Mode::Collect));
        axi_checkers.push_back(&sim.add<AxiGroupChecker>(
            "lint.check.pcis", inner.pcis, Mode::Collect));
        axi_checkers.push_back(&sim.add<AxiGroupChecker>(
            "lint.check.pcim", inner.pcim, Mode::Collect));
    }

    shim.beginRecord();

    ElabTracker tracker;
    bool panicked = false;
    {
        AccessTrackerScope scope(tracker);
        try {
            while (!instance->done() && sim.cycle() < opts.max_cycles)
                sim.stepUntil(opts.max_cycles);
        } catch (const SimPanic &p) {
            // Most likely the settle bound tripping on an unstable
            // combinational loop; elaborate what was observed so far —
            // the SCC pass usually names the cycle precisely.
            result.report.add(LintSeverity::Error, "calibration",
                              "calibration-panic", result.app, p.what());
            panicked = true;
        } catch (const SimFatal &f) {
            result.report.add(LintSeverity::Error, "calibration",
                              "calibration-fatal", result.app, f.what());
            panicked = true;
        }
    }

    result.completed = instance->done();
    result.cycles = sim.cycle();
    if (!result.completed && !panicked) {
        result.report.add(
            LintSeverity::Warning, "calibration", "calibration-incomplete",
            result.app,
            "workload did not complete within the cycle budget (" +
                std::to_string(opts.max_cycles) +
                "); access sets — and thus pass coverage — may be "
                "partial");
    }

    const DesignGraph graph =
        elaborateDesign(sim, &shim.boundary(), tracker);
    result.design_summary = graph.summary();
    runLintPasses(graph, result.report);

    if (opts.dynamic_checks)
        mergeDynamicFindings(sim, axi_checkers, lite_checkers,
                             result.report);

    return result;
}

} // namespace vidi
