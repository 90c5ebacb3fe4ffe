/**
 * @file
 * vidi_lint: static design linter for Vidi applications.
 *
 *   vidi_lint <app> [options]   lint one registered application
 *   vidi_lint --all [options]   lint every registered application
 *   vidi_lint --list            list the registered applications
 *
 * options:
 *   --json        machine-readable output (one object, or an array
 *                 under --all)
 *   --dynamic     also arm the per-channel protocol checkers and the
 *                 per-interface AXI ordering checkers during the
 *                 calibration run and merge their violations
 *   --scale <s>   calibration workload scale (default 0.1)
 *   --seed <n>    calibration run seed (default 1)
 *   --mask <hex>  monitored-channel mask, as VidiConfig::monitor_mask
 *                 (default: all channels; use e.g. 0x1ffffff minus some
 *                 bits to preview the coverage holes a restricted
 *                 recording would open)
 *   --out <path>  write the report to <path> instead of stdout, via a
 *                 crash-safe atomic write (temp file + fsync + rename)
 *
 * Exit status: 0 when no Error-severity findings, 1 when at least one
 * (the CI gate), 2 for usage or runtime errors. The gate is identical
 * in text and --json mode — JSON consumers can rely on "exit 1 implies
 * a parseable report with at least one Error finding", while a crash
 * (exit 2) never masquerades as a lint failure.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "apps/app_registry.h"
#include "checkpoint/atomic_file.h"
#include "lint/linter.h"
#include "sim/logging.h"

namespace {

using namespace vidi;

int
usage()
{
    std::fputs("usage:\n"
               "  vidi_lint <app> [--json] [--dynamic] "
               "[--scale s] [--seed n] [--mask hex] [--out path]\n"
               "  vidi_lint --all [same options]\n"
               "  vidi_lint --list\n",
               stderr);
    return 2;
}

struct CliArgs
{
    std::string app;
    bool all = false;
    bool list = false;
    bool json = false;
    std::string out_path;
    LintOptions opts;
};

bool
parseArgs(int argc, char **argv, CliArgs &out)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        if (arg == "--all") {
            out.all = true;
        } else if (arg == "--list") {
            out.list = true;
        } else if (arg == "--json") {
            out.json = true;
        } else if (arg == "--dynamic") {
            out.opts.dynamic_checks = true;
        } else if (arg == "--scale") {
            const char *v = value();
            if (v == nullptr)
                return false;
            out.opts.scale = std::strtod(v, nullptr);
        } else if (arg == "--seed") {
            const char *v = value();
            if (v == nullptr)
                return false;
            out.opts.seed = std::strtoull(v, nullptr, 0);
        } else if (arg == "--mask") {
            const char *v = value();
            if (v == nullptr)
                return false;
            out.opts.monitor_mask = std::strtoull(v, nullptr, 16);
        } else if (arg == "--out") {
            const char *v = value();
            if (v == nullptr)
                return false;
            out.out_path = v;
        } else if (!arg.empty() && arg[0] == '-') {
            return false;
        } else if (out.app.empty()) {
            out.app = arg;
        } else {
            return false;
        }
    }
    return out.list || out.all || !out.app.empty();
}

} // namespace

int
main(int argc, char **argv)
{
    CliArgs cli;
    if (!parseArgs(argc, argv, cli))
        return usage();

    try {
        const auto apps = makeTable1Apps();

        if (cli.list) {
            for (const auto &app : apps)
                std::printf("%s\n", app->name().c_str());
            return 0;
        }

        std::vector<AppBuilder *> selected;
        if (cli.all) {
            for (const auto &app : apps)
                selected.push_back(app.get());
        } else {
            for (const auto &app : apps) {
                if (app->name() == cli.app)
                    selected.push_back(app.get());
            }
            if (selected.empty()) {
                std::string known;
                for (const auto &app : apps) {
                    known += " ";
                    known += app->name();
                }
                std::fprintf(stderr,
                             "vidi_lint: unknown app '%s'; known:%s\n",
                             cli.app.c_str(), known.c_str());
                return 2;
            }
        }

        bool any_errors = false;
        std::string text_out;
        JsonValue results = JsonValue::array();
        for (AppBuilder *app : selected) {
            const AppLintResult result = lintApp(*app, cli.opts);
            any_errors = any_errors || result.report.hasErrors();
            if (cli.json)
                results.push(result.toJson());
            else
                text_out += result.toString() + "\n";
        }
        if (cli.json) {
            text_out = cli.all ? results.dump(2)
                               : results.items().front().dump(2);
            text_out += "\n";
        }
        if (cli.out_path.empty())
            std::fputs(text_out.c_str(), stdout);
        else
            // Crash-safe report write: a crash mid-save must not leave
            // a truncated report a CI consumer would half-parse.
            writeFileAtomic(cli.out_path, text_out.data(),
                            text_out.size());
        return any_errors ? 1 : 0;
    } catch (const std::exception &e) {
        // Runtime failures exit 2, like usage errors: exit 1 is reserved
        // for "the lint ran and found Errors", so --json consumers never
        // mistake a crash (with no parseable report) for a lint failure.
        std::fprintf(stderr, "vidi_lint: %s\n", e.what());
        return 2;
    }
}
