/**
 * @file
 * vidi-trace: command-line tool over Vidi trace files.
 *
 *   vidi_trace info <trace>                      per-channel statistics
 *   vidi_trace dump <trace> [N]                  first N cycle packets
 *   vidi_trace verify <trace>                    walk the storage lines,
 *       check every CRC and sequence number, print the damage report;
 *       exit 0 only for a fully intact trace
 *   vidi_trace profile <trace> [reqChan respChan] burst/latency profile,
 *       optionally with request→response pair latency for two channels
 *   vidi_trace validate <reference> <validation> diff two traces (§3.6)
 *   vidi_trace mutate <in> <out> <chanA> <k> <chanB> <j>
 *       move the k-th end of channel <chanA> before the j-th end of
 *       channel <chanB> (§5.3); channels by name or index
 *   vidi_trace lint <trace> [--json]             happens-before analysis:
 *       report concurrent (vector-clock-unordered) end pairs — the legal
 *       reordering targets for `mutate` — and polling-shaped channels
 *   vidi_trace record <app> <out> [scale] [seed] record the named Table 1
 *       app (default scale 0.1, seed 1) and save the trace to <out>;
 *       with --session <dir> [--checkpoint-every N] the run becomes a
 *       crash-consistent session: full state is committed to <dir>
 *       every N cycles (default 100000) and an interrupted run can be
 *       continued with `vidi_trace resume <dir>`
 *   vidi_trace stats <app> [scale] [kernel]      record the named Table 1
 *       app at the given workload scale (default 0.1), replay the
 *       recording under the same kernel, and print both runs'
 *       simulation-kernel counters: eval passes, per-module eval counts,
 *       cycles skipped and the encoder packet-pool hit rate. kernel is
 *       "activity" (default), "full", or "both" (full/activity A/B
 *       with the reductions, a byte-identity check of the two traces,
 *       and a check that both replays agree on cycles and validation
 *       trace)
 *   vidi_trace checkpoint <dir>                  inspect a session
 *       directory: manifest, journal entries, which checkpoint recovery
 *       would resume from and why newer ones were skipped
 *   vidi_trace resume <dir>                      resume the interrupted
 *       record or replay session at <dir> from its newest committed
 *       checkpoint (or from cycle 0 when none committed)
 *   vidi_trace compact <in> <out> [--to-v1]      transcode a trace
 *       between the v1 line container (.vtrc) and the seekable
 *       block-compressed VTC2 container (.vtc2); the decoded packet
 *       stream is verified bit-identical after the rewrite
 *   vidi_trace debug <app> --at-cycle N [options] time-travel debugging:
 *       record the app, replay it into a checkpointed session, then
 *       restore the nearest checkpoint at or before N and replay
 *       forward to exactly cycle N. --watch c1,c2 prints every
 *       transition of the named channels over the forward leg (from
 *       the VTC2 cycle index); --until cycle=M / --until seq=M extends
 *       the leg; --session <dir> reuses an existing replay session
 *       instead of re-recording
 *
 * This is the offline-analysis side of the paper's §4.2 tooling,
 * packaged the way a downstream user would invoke it.
 *
 * Exit codes (uniform across subcommands, scriptable):
 *   0  success
 *   1  usage error (unknown subcommand, bad arguments)
 *   2  runtime failure (I/O error, incomplete run, invalid input)
 *   3  trace damage or verification mismatch (verify found damaged
 *      lines, validate found divergences, checkpoint found only
 *      damaged resume points)
 *
 * Environment: VIDI_JOB_TIMEOUT_MS, VIDI_MAX_RETRIES and
 * VIDI_RETRY_BACKOFF_MS override the corresponding VidiConfig knobs
 * for `record` runs (see core/vidi_config.h); a recording that hits
 * the wall-clock budget under --session is checkpointed and exits 2
 * with a resume hint.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "apps/app_registry.h"
#include "checkpoint/atomic_file.h"
#include "checkpoint/live_session.h"
#include "checkpoint/session.h"
#include "checkpoint/session_runner.h"
#include "core/recorder.h"
#include "core/replayer.h"
#include "core/runtime.h"
#include "core/trace_mutator.h"
#include "lint/trace_lint.h"
#include "sim/logging.h"
#include "core/trace_validator.h"
#include "trace/trace_file.h"
#include "trace/trace_profile.h"
#include "trace/trace_stats.h"
#include "tracefmt/time_travel.h"
#include "tracefmt/vtc2.h"

namespace {

using namespace vidi;

int
usage()
{
    std::fputs(
        "usage:\n"
        "  vidi_trace info <trace>\n"
        "      per-channel event/content statistics\n"
        "  vidi_trace dump <trace> [N]\n"
        "      print the first N cycle packets (default 32)\n"
        "  vidi_trace verify <trace>\n"
        "      check storage-line CRCs/sequence numbers; exit 0 iff "
        "intact\n"
        "  vidi_trace profile <trace> [reqChan respChan]\n"
        "      burst/latency profile (optional request->response pair)\n"
        "  vidi_trace validate <reference> <validation>\n"
        "      diff two traces; exit 0 iff identical\n"
        "  vidi_trace mutate <in> <out> <chanA> <k> <chanB> <j>\n"
        "      move the k-th end of chanA before the j-th end of chanB\n"
        "  vidi_trace lint <trace> [--json]\n"
        "      happens-before analysis: concurrent end pairs (mutate\n"
        "      targets) and polling-shaped channels\n"
        "  vidi_trace record <app> <out> [scale] [seed]\n"
        "             [--session <dir>] [--checkpoint-every N]\n"
        "      record a Table 1 app and save its trace; with --session\n"
        "      the run checkpoints into <dir> and is resumable\n"
        "  vidi_trace stats <app> [scale] "
        "[activity|full|both]\n"
        "      record and replay an app and print both runs'\n"
        "      simulation-kernel counters\n"
        "  vidi_trace checkpoint <dir>\n"
        "      inspect a session: manifest, journal, resume point\n"
        "  vidi_trace resume <dir>\n"
        "      resume an interrupted record/replay session\n"
        "  vidi_trace compact <in> <out> [--to-v1]\n"
        "      transcode v1 lines <-> VTC2 (seekable, compressed);\n"
        "      verifies the decoded packet stream is bit-identical\n"
        "  vidi_trace debug <app> --at-cycle N [--watch c1,c2]\n"
        "             [--until cycle=M|seq=M] [--session <dir>]\n"
        "             [--scale S] [--seed K] [--checkpoint-every N]\n"
        "             [--workdir <dir>]\n"
        "      time-travel: restore the nearest checkpoint <= N and\n"
        "      replay forward to exactly cycle N\n"
        "exit codes: 0 ok, 1 usage, 2 runtime failure, 3 trace damage "
        "or verify mismatch\n",
        stderr);
    return 1;
}

/** Resolve a channel given by name or decimal index. */
size_t
resolveChannel(const Trace &trace, const std::string &arg)
{
    for (size_t i = 0; i < trace.meta.channelCount(); ++i) {
        if (trace.meta.channels[i].name == arg)
            return i;
    }
    char *end = nullptr;
    const unsigned long idx = std::strtoul(arg.c_str(), &end, 10);
    if (end != nullptr && *end == '\0' &&
        idx < trace.meta.channelCount())
        return idx;
    vidi::fatal("unknown channel '%s'", arg.c_str());
}

int
cmdInfo(const std::string &path)
{
    const Trace trace = loadTrace(path);
    std::printf("%s: %zu channels, output content %s\n\n", path.c_str(),
                trace.meta.channelCount(),
                trace.meta.record_output_content ? "recorded" : "absent");
    std::fputs(TraceStats::analyze(trace).toString().c_str(), stdout);
    return 0;
}

int
cmdDump(const std::string &path, size_t limit)
{
    const Trace trace = loadTrace(path);
    size_t shown = 0;
    for (const auto &pkt : trace.packets) {
        if (shown >= limit)
            break;
        std::string line = "packet " + std::to_string(shown) + ":";
        bitvec::forEach(pkt.starts, [&](size_t c) {
            line += " start(" + trace.meta.channels[c].name + ")";
        });
        bitvec::forEach(pkt.ends, [&](size_t c) {
            line += " end(" + trace.meta.channels[c].name + ")";
        });
        std::printf("%s\n", line.c_str());
        ++shown;
    }
    if (trace.packets.size() > shown)
        std::printf("... %zu more packets\n",
                    trace.packets.size() - shown);
    return 0;
}

int
cmdVerify(const std::string &path)
{
    // Tolerant load: body damage is surveyed, not fatal. Only a corrupt
    // header (magic, metadata CRC) still throws.
    TraceDamageReport report;
    const Trace trace = loadTrace(path, report);
    std::printf("%s: %s\n", path.c_str(), report.toString().c_str());
    if (!report.clean()) {
        std::printf("recovered %zu packets across %llu resync(s)\n",
                    trace.packets.size(),
                    static_cast<unsigned long long>(report.resyncs));
        return 3;
    }
    return 0;
}

int
cmdProfile(const std::string &path, const char *req, const char *resp)
{
    const Trace trace = loadTrace(path);
    const TraceProfiler profiler(trace);
    std::fputs(profiler.toString().c_str(), stdout);
    if (req != nullptr && resp != nullptr) {
        const PairLatency lat = profiler.pairLatency(
            resolveChannel(trace, req), resolveChannel(trace, resp));
        std::printf("\n%s -> %s latency (groups): avg %.1f, min %llu, "
                    "max %llu over %llu pairs\n",
                    lat.request.c_str(), lat.response.c_str(),
                    lat.latency.mean,
                    static_cast<unsigned long long>(lat.latency.min),
                    static_cast<unsigned long long>(lat.latency.max),
                    static_cast<unsigned long long>(
                        lat.latency.samples));
    }
    return 0;
}

int
cmdValidate(const std::string &ref_path, const std::string &val_path)
{
    const Trace ref = loadTrace(ref_path);
    const Trace val = loadTrace(val_path);
    const ValidationReport report = validateTraces(ref, val);
    std::printf("%s\n", report.summary().c_str());
    for (const auto &d : report.divergences)
        std::printf("  %s\n", d.toString().c_str());
    return report.identical() ? 0 : 3;
}

int
cmdMutate(const std::string &in_path, const std::string &out_path,
          const std::string &chan_a, uint64_t k, const std::string &chan_b,
          uint64_t j)
{
    const Trace trace = loadTrace(in_path);
    const size_t a = resolveChannel(trace, chan_a);
    const size_t b = resolveChannel(trace, chan_b);
    TraceMutator mutator(trace);
    const bool changed = mutator.reorderEndBefore(a, k, b, j);
    saveTrace(out_path, mutator.take());
    std::printf("%s: end %llu of %s %s end %llu of %s; wrote %s\n",
                changed ? "mutated" : "already ordered",
                static_cast<unsigned long long>(k), chan_a.c_str(),
                changed ? "moved before" : "precedes",
                static_cast<unsigned long long>(j), chan_b.c_str(),
                out_path.c_str());
    return 0;
}

int
cmdLint(const std::string &path, bool json)
{
    const Trace trace = loadTrace(path);
    const TraceLintReport report = lintTrace(trace);
    if (json)
        std::printf("%s\n", report.toJson().dump(2).c_str());
    else
        std::fputs(report.toString(path).c_str(), stdout);
    return 0;
}

int
cmdCompact(const std::string &in_path, const std::string &out_path,
           bool to_v1)
{
    TraceDamageReport report;
    const Trace in = loadTrace(in_path, report);
    if (!report.clean()) {
        std::printf("%s: %s\n", in_path.c_str(),
                    report.toString().c_str());
        std::fputs("compact: refusing to transcode a damaged trace "
                   "(repair first: the rewrite would launder the "
                   "damage report away)\n",
                   stderr);
        return 3;
    }
    const TraceFileFormat format =
        to_v1 ? TraceFileFormat::V1Lines : TraceFileFormat::Vtc2;
    saveTrace(out_path, in, format, nullptr);

    // The rewrite is only trustworthy if the decoded packet stream
    // survives the round trip bit-identically.
    const Trace out = loadTrace(out_path);
    if (!(out == in)) {
        std::fputs("compact: round-trip mismatch — decoded packet "
                   "streams differ\n",
                   stderr);
        return 3;
    }

    const uint64_t in_bytes = readFileBytes(in_path).size();
    const uint64_t out_bytes = readFileBytes(out_path).size();
    std::printf("%s (%llu B) -> %s (%llu B): %.2fx, %zu packets "
                "bit-identical%s\n",
                in_path.c_str(),
                static_cast<unsigned long long>(in_bytes),
                out_path.c_str(),
                static_cast<unsigned long long>(out_bytes),
                out_bytes == 0 ? 0.0
                               : double(in_bytes) / double(out_bytes),
                out.packets.size(),
                !to_v1 && out.hasCycles()
                    ? ", cycle index attached"
                    : "");
    return 0;
}

/** Channel index by name (or decimal index) against a TraceMeta. */
size_t
resolveMetaChannel(const TraceMeta &meta, const std::string &arg)
{
    for (size_t i = 0; i < meta.channelCount(); ++i) {
        if (meta.channels[i].name == arg)
            return i;
    }
    char *end = nullptr;
    const unsigned long idx = std::strtoul(arg.c_str(), &end, 10);
    if (end != nullptr && *end == '\0' && idx < meta.channelCount())
        return idx;
    fatal("unknown channel '%s'", arg.c_str());
}

/**
 * Print every transition of the watched channels over [from, to],
 * straight from the VTC2 cycle index — no re-simulation needed.
 */
void
printWatch(const std::string &trace_path,
           const std::vector<std::string> &watch, uint64_t from,
           uint64_t to)
{
    std::vector<uint8_t> image = readFileBytes(trace_path);
    if (!isVtc2Image(image.data(), image.size())) {
        std::printf("--watch: %s is not a VTC2 container (no cycle "
                    "index); run `vidi_trace compact` first\n",
                    trace_path.c_str());
        return;
    }
    TraceReader reader(std::move(image), trace_path);
    uint64_t mask = 0;
    for (const std::string &name : watch)
        mask |= uint64_t(1)
                << resolveMetaChannel(reader.meta(), name);
    if (!reader.hasCycles())
        std::printf("--watch: trace carries no cycle annotations; "
                    "cycle keys below are packet sequence numbers\n");

    reader.seekToCycle(from);
    CyclePacket pkt;
    uint64_t seq = 0, cycle = 0;
    uint64_t shown = 0;
    while (reader.next(pkt, &seq, &cycle)) {
        if (cycle > to)
            break;
        if (((pkt.starts | pkt.ends) & mask) == 0)
            continue;
        std::string line = "  cycle " + std::to_string(cycle) +
                           " seq " + std::to_string(seq) + ":";
        bitvec::forEach(pkt.starts & mask, [&](size_t c) {
            line += " start(" + reader.meta().channels[c].name + ")";
        });
        bitvec::forEach(pkt.ends & mask, [&](size_t c) {
            line += " end(" + reader.meta().channels[c].name + ")";
        });
        std::printf("%s\n", line.c_str());
        ++shown;
    }
    std::printf("  %llu transition packet(s) on watched channels in "
                "cycles [%llu, %llu]\n",
                static_cast<unsigned long long>(shown),
                static_cast<unsigned long long>(from),
                static_cast<unsigned long long>(to));
}

/** Find a registry app by name; fatal with the known names otherwise. */
AppBuilder *
findApp(const std::vector<std::unique_ptr<AppBuilder>> &apps,
        const std::string &app_name)
{
    for (const auto &candidate : apps) {
        if (candidate->name() == app_name)
            return candidate.get();
    }
    std::string known;
    for (const auto &candidate : apps) {
        known += " ";
        known += candidate->name();
    }
    fatal("unknown app '%s'; known apps:%s", app_name.c_str(),
          known.c_str());
}

int
cmdRecord(const std::string &app_name, const std::string &out_path,
          double scale, uint64_t seed, const std::string &session_dir,
          uint64_t checkpoint_every)
{
    const auto apps = makeTable1Apps();
    AppBuilder *app = findApp(apps, app_name);
    VidiConfig cfg;
    applyEnvOverrides(cfg);
    RecordResult r;
    if (session_dir.empty()) {
        app->setScale(scale);
        r = recordToFile(*app, out_path, seed, cfg);
    } else {
        r = recordSession(*app, session_dir, scale, seed,
                          checkpoint_every, out_path, cfg);
    }
    if (r.timed_out) {
        if (!session_dir.empty())
            fatal("record: wall-clock budget (VIDI_JOB_TIMEOUT_MS) "
                  "expired at cycle %llu; session checkpointed — "
                  "continue with `vidi_trace resume %s`",
                  static_cast<unsigned long long>(r.cycles),
                  session_dir.c_str());
        fatal("record: wall-clock budget (VIDI_JOB_TIMEOUT_MS) expired "
              "at cycle %llu",
              static_cast<unsigned long long>(r.cycles));
    }
    if (!r.completed)
        fatal("record: %s did not complete within the cycle budget",
              app_name.c_str());
    std::printf("%s\n", describe(r).c_str());
    return 0;
}

int
cmdCheckpoint(const std::string &dir)
{
    const Session session = Session::open(dir);
    const SessionManifest &m = session.manifest();
    std::printf("%s: %s session of %s (seed %llu, scale %.2f)\n",
                dir.c_str(), toString(VidiMode(m.mode)), m.app.c_str(),
                static_cast<unsigned long long>(m.seed), m.scale);
    std::printf("  checkpoint every %llu cycles; trace path %s\n",
                static_cast<unsigned long long>(m.checkpoint_every),
                m.trace_path.empty() ? "(none)" : m.trace_path.c_str());
    std::printf("  journal: %zu committed checkpoint(s)\n",
                session.journal().size());
    for (const JournalEntry &e : session.journal())
        std::printf("    cycle %-12llu %s\n",
                    static_cast<unsigned long long>(e.cycle),
                    e.file.c_str());

    CheckpointImage latest;
    std::string path;
    std::string diagnosis;
    if (session.latestCheckpoint(&latest, &path, &diagnosis)) {
        if (!diagnosis.empty())
            std::printf("  skipped damaged checkpoint(s):\n%s",
                        diagnosis.c_str());
        std::printf("  resume point: cycle %llu (%s, %zu state bytes)\n",
                    static_cast<unsigned long long>(latest.cycle),
                    path.c_str(), latest.body.size());
        return 0;
    }
    if (!diagnosis.empty())
        std::printf("  damaged checkpoint(s):\n%s", diagnosis.c_str());
    std::printf("  resume point: none committed (resume restarts from "
                "cycle 0)\n");
    // An inspectable session is not an error even without checkpoints,
    // but damage that removed every resume point is.
    return diagnosis.empty() ? 0 : 3;
}

int
cmdResume(const std::string &dir)
{
    const Session session = Session::open(dir);
    const SessionManifest &m = session.manifest();
    const auto apps = makeTable1Apps();
    AppBuilder *app = findApp(apps, m.app);
    if (VidiMode(m.mode) == VidiMode::R3_Replay) {
        const ReplayResult r = resumeReplaySession(*app, dir);
        std::printf("%s\n", describe(r).c_str());
        return r.completed ? 0 : 2;
    }
    const RecordResult r = resumeRecordSession(*app, dir);
    if (r.timed_out)
        fatal("resume: wall-clock budget expired at cycle %llu; "
              "session re-checkpointed — run `vidi_trace resume %s` "
              "again to continue",
              static_cast<unsigned long long>(r.cycles), dir.c_str());
    if (!r.completed)
        fatal("resume: %s did not complete within the cycle budget",
              m.app.c_str());
    std::printf("%s\n", describe(r).c_str());
    return 0;
}

struct DebugArgs
{
    std::string app;
    uint64_t at_cycle = 0;
    std::vector<std::string> watch;
    enum class UntilKind : uint8_t { None, Cycle, Seq } until_kind =
        UntilKind::None;
    uint64_t until_value = 0;
    std::string session_dir;  ///< reuse an existing replay session
    std::string workdir;      ///< where the default flow builds one
    double scale = 0.1;
    uint64_t seed = 1;
    uint64_t checkpoint_every = 100'000;
};

void
printStop(const char *label, const TimeTravelStop &s)
{
    std::printf("%s: cycle %llu (target %llu), %llu packet(s) decoded",
                label, static_cast<unsigned long long>(s.stop_cycle),
                static_cast<unsigned long long>(s.target_cycle),
                static_cast<unsigned long long>(s.packets_decoded));
    if (s.used_checkpoint)
        std::printf("; restored checkpoint at cycle %llu + %llu "
                    "forward cycle(s)",
                    static_cast<unsigned long long>(s.checkpoint_cycle),
                    static_cast<unsigned long long>(s.stepped_cycles));
    else
        std::printf("; no checkpoint at or before target — replayed "
                    "%llu cycle(s) from 0",
                    static_cast<unsigned long long>(s.stepped_cycles));
    if (s.finished)
        std::printf(" [run finished]");
    std::printf("\n");
}

int
cmdDebug(const DebugArgs &a)
{
    const auto apps = makeTable1Apps();
    AppBuilder *app = findApp(apps, a.app);

    std::string session_dir = a.session_dir;
    if (session_dir.empty()) {
        // Default flow: record the app, then replay it into a
        // checkpointed session that keeps its *full* checkpoint ladder
        // (retain = 0) so any target cycle has a nearby restore point.
        const std::string work =
            a.workdir.empty() ? a.app + ".debug" : a.workdir;
        makeDirs(work);
        const std::string trace_path = work + "/trace.vtc2";
        VidiConfig cfg;
        applyEnvOverrides(cfg);
        app->setScale(a.scale);
        const RecordResult rec =
            recordToFile(*app, trace_path, a.seed, cfg);
        if (!rec.completed)
            fatal("debug: %s did not complete within the cycle budget",
                  a.app.c_str());
        std::printf("recorded %s: %llu cycles -> %s\n", a.app.c_str(),
                    static_cast<unsigned long long>(rec.cycles),
                    trace_path.c_str());

        session_dir = work + "/replay";
        SessionManifest m;
        m.app = app->name();
        m.mode = uint8_t(VidiMode::R3_Replay);
        m.seed = 0;
        m.scale = a.scale;
        m.checkpoint_every = a.checkpoint_every;
        m.checkpoint_retain = 0;  // keep every checkpoint
        m.trace_path = trace_path;
        m.cfg = cfg;
        // Commit at every cadence boundary — the wall-clock commit
        // throttle would thin the ladder on a fast replay.
        m.cfg.checkpoint_min_interval_ms = 0;
        auto live = LiveSession::create(*app, session_dir, m);
        while (!live->finished())
            live->step();
        const ReplayResult rr = live->takeReplayResult();
        if (!rr.completed)
            fatal("debug: replay stalled: %s", rr.diagnostic.c_str());
        std::printf("replay session ready: %llu cycles, %llu "
                    "checkpoint(s) in %s\n",
                    static_cast<unsigned long long>(rr.cycles),
                    static_cast<unsigned long long>(
                        rr.checkpoint.checkpoints),
                    session_dir.c_str());
    }

    TimeTravel leg(*app, session_dir, a.at_cycle);
    TimeTravelStop s = leg.run();
    printStop("debug", s);
    const uint64_t leg_start =
        s.used_checkpoint ? s.checkpoint_cycle : 0;

    if (a.until_kind == DebugArgs::UntilKind::Cycle) {
        s = leg.advanceToCycle(a.until_value);
        printStop("until", s);
    } else if (a.until_kind == DebugArgs::UntilKind::Seq) {
        s = leg.advanceToPacket(a.until_value);
        printStop("until", s);
    }

    if (!a.watch.empty()) {
        const Session session = Session::open(session_dir);
        std::printf("watch [%llu, %llu]:\n",
                    static_cast<unsigned long long>(leg_start),
                    static_cast<unsigned long long>(s.stop_cycle));
        printWatch(session.manifest().trace_path, a.watch, leg_start,
                   s.stop_cycle);
    }
    return 0;
}

/** One `stats` pass: a recording and its replay under one kernel. */
struct StatsRun
{
    RecordResult record;
    ReplayResult replay;
};

/**
 * Record @p app once under @p mode, replay the recording under the same
 * kernel, and print both runs' kernel counters.
 */
StatsRun
statsRun(AppBuilder &app, double scale, KernelMode mode)
{
    app.setScale(scale);
    VidiConfig cfg;
    cfg.kernel = mode;
    StatsRun run;
    run.record = recordRun(app, VidiMode::R2_Record, 1, cfg);
    const RecordResult &r = run.record;
    if (!r.completed)
        fatal("stats: %s did not complete within the cycle budget",
              app.name().c_str());
    std::fputs("-- record --\n", stdout);
    std::fputs(r.kernel.toString().c_str(), stdout);
    const uint64_t pool_total = r.encoder_pool_hits +
                                r.encoder_pool_misses;
    std::printf("packet pool:        %llu/%llu hits (%.1f%%)\n",
                static_cast<unsigned long long>(r.encoder_pool_hits),
                static_cast<unsigned long long>(pool_total),
                pool_total == 0 ? 0.0
                                : 100.0 * double(r.encoder_pool_hits) /
                                      double(pool_total));
    if (!r.trace.packets.empty()) {
        // Container figures: what this recording costs on disk in each
        // format, and what the VTC2 index provides for seeking.
        const std::vector<uint8_t> img = serializeVtc2(r.trace);
        const Vtc2Stats ts = inspectVtc2(img.data(), img.size(), "stats");
        const uint64_t v1 = ts.v1LineBytes();
        std::printf("trace container:    vtc2 %llu B vs v1 lines %llu B "
                    "(%.2fx)\n",
                    static_cast<unsigned long long>(ts.file_bytes),
                    static_cast<unsigned long long>(v1),
                    ts.file_bytes == 0
                        ? 0.0
                        : double(v1) / double(ts.file_bytes));
        std::printf("trace index:        %llu frame(s) (%llu "
                    "compressed), %llu index entr%s, cycle keys %s\n",
                    static_cast<unsigned long long>(ts.frames),
                    static_cast<unsigned long long>(
                        ts.compressed_frames),
                    static_cast<unsigned long long>(ts.index_entries),
                    ts.index_entries == 1 ? "y" : "ies",
                    ts.has_cycles ? "emission cycles"
                                  : "packet sequence");
    }

    run.replay = replayRun(app, r.trace, cfg);
    if (!run.replay.completed)
        fatal("stats: %s replay did not complete within the cycle budget",
              app.name().c_str());
    std::fputs("-- replay --\n", stdout);
    std::fputs(run.replay.kernel.toString().c_str(), stdout);
    return run;
}

int
cmdStats(const std::string &app_name, double scale,
         const std::string &kernel)
{
    const auto apps = makeTable1Apps();
    AppBuilder *app = findApp(apps, app_name);

    if (kernel == "activity" || kernel == "full") {
        statsRun(*app, scale,
                 kernel == "full" ? KernelMode::FullEval
                                  : KernelMode::ActivityDriven);
        return 0;
    }
    if (kernel != "both")
        fatal("unknown kernel '%s' (want activity, full or both)",
              kernel.c_str());

    std::printf("=== %s, scale %.2f, full-eval kernel ===\n",
                app_name.c_str(), scale);
    const StatsRun full = statsRun(*app, scale, KernelMode::FullEval);
    std::printf("\n=== %s, scale %.2f, activity-driven kernel ===\n",
                app_name.c_str(), scale);
    const StatsRun act = statsRun(*app, scale, KernelMode::ActivityDriven);

    if (full.record.trace.serialize() != act.record.trace.serialize())
        fatal("stats: full-eval and activity kernels produced "
              "different traces — determinism bug");
    if (act.replay.cycles != full.replay.cycles ||
        !(act.replay.validation == full.replay.validation))
        fatal("stats: full-eval and activity kernels replayed "
              "differently — determinism bug");
    std::printf("\ntraces byte-identical: yes (full = activity)\n");
    std::printf("replays identical:     yes (cycles and validation)\n");
    auto reductions = [](const char *what, const KernelStats &f,
                         const KernelStats &a) {
        if (a.eval_passes == 0 || a.module_evals == 0)
            return;
        std::printf("%s eval-pass reduction:   %.2fx\n", what,
                    double(f.eval_passes) / double(a.eval_passes));
        std::printf("%s module-eval reduction: %.2fx\n", what,
                    double(f.module_evals) / double(a.module_evals));
    };
    reductions("record", full.record.kernel, act.record.kernel);
    reductions("replay", full.replay.kernel, act.replay.kernel);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    const std::string cmd = argv[1];
    try {
        if (cmd == "info" && argc == 3)
            return cmdInfo(argv[2]);
        if (cmd == "dump" && (argc == 3 || argc == 4))
            return cmdDump(argv[2],
                           argc == 4 ? std::strtoul(argv[3], nullptr, 10)
                                     : 32);
        if (cmd == "verify" && argc == 3)
            return cmdVerify(argv[2]);
        if (cmd == "profile" && (argc == 3 || argc == 5)) {
            return cmdProfile(argv[2], argc == 5 ? argv[3] : nullptr,
                              argc == 5 ? argv[4] : nullptr);
        }
        if (cmd == "validate" && argc == 4)
            return cmdValidate(argv[2], argv[3]);
        if (cmd == "mutate" && argc == 8) {
            return cmdMutate(argv[2], argv[3], argv[4],
                             std::strtoul(argv[5], nullptr, 10), argv[6],
                             std::strtoul(argv[7], nullptr, 10));
        }
        if (cmd == "lint" && (argc == 3 || argc == 4)) {
            const bool json =
                argc == 4 && std::strcmp(argv[3], "--json") == 0;
            if (argc == 4 && !json)
                return usage();
            return cmdLint(argv[2], json);
        }
        if (cmd == "record" && argc >= 4) {
            std::vector<std::string> pos;
            std::string session_dir;
            uint64_t every = 100'000;
            for (int i = 2; i < argc; ++i) {
                const std::string arg = argv[i];
                if (arg == "--session") {
                    if (++i >= argc)
                        return usage();
                    session_dir = argv[i];
                } else if (arg == "--checkpoint-every") {
                    if (++i >= argc)
                        return usage();
                    every = std::strtoull(argv[i], nullptr, 0);
                } else if (!arg.empty() && arg[0] == '-') {
                    return usage();
                } else {
                    pos.push_back(arg);
                }
            }
            if (pos.size() < 2 || pos.size() > 4)
                return usage();
            return cmdRecord(
                pos[0], pos[1],
                pos.size() >= 3 ? std::strtod(pos[2].c_str(), nullptr)
                                : 0.1,
                pos.size() == 4
                    ? std::strtoull(pos[3].c_str(), nullptr, 0)
                    : 1,
                session_dir, every);
        }
        if (cmd == "compact" && (argc == 4 || argc == 5)) {
            const bool to_v1 =
                argc == 5 && std::strcmp(argv[4], "--to-v1") == 0;
            if (argc == 5 && !to_v1)
                return usage();
            return cmdCompact(argv[2], argv[3], to_v1);
        }
        if (cmd == "debug" && argc >= 3) {
            DebugArgs a;
            a.app = argv[2];
            bool have_at = false;
            for (int i = 3; i < argc; ++i) {
                const std::string arg = argv[i];
                if (++i >= argc)
                    return usage();  // every debug flag takes a value
                const std::string val = argv[i];
                if (arg == "--at-cycle") {
                    a.at_cycle = std::strtoull(val.c_str(), nullptr, 0);
                    have_at = true;
                } else if (arg == "--watch") {
                    size_t pos = 0;
                    while (pos <= val.size()) {
                        const size_t comma = val.find(',', pos);
                        const std::string name = val.substr(
                            pos, comma == std::string::npos
                                     ? std::string::npos
                                     : comma - pos);
                        if (!name.empty())
                            a.watch.push_back(name);
                        if (comma == std::string::npos)
                            break;
                        pos = comma + 1;
                    }
                } else if (arg == "--until") {
                    if (val.compare(0, 6, "cycle=") == 0) {
                        a.until_kind = DebugArgs::UntilKind::Cycle;
                        a.until_value = std::strtoull(
                            val.c_str() + 6, nullptr, 0);
                    } else if (val.compare(0, 4, "seq=") == 0) {
                        a.until_kind = DebugArgs::UntilKind::Seq;
                        a.until_value = std::strtoull(
                            val.c_str() + 4, nullptr, 0);
                    } else {
                        return usage();
                    }
                } else if (arg == "--session") {
                    a.session_dir = val;
                } else if (arg == "--workdir") {
                    a.workdir = val;
                } else if (arg == "--scale") {
                    a.scale = std::strtod(val.c_str(), nullptr);
                } else if (arg == "--seed") {
                    a.seed = std::strtoull(val.c_str(), nullptr, 0);
                } else if (arg == "--checkpoint-every") {
                    a.checkpoint_every =
                        std::strtoull(val.c_str(), nullptr, 0);
                } else {
                    return usage();
                }
            }
            if (!have_at)
                return usage();
            return cmdDebug(a);
        }
        if (cmd == "checkpoint" && argc == 3)
            return cmdCheckpoint(argv[2]);
        if (cmd == "resume" && argc == 3)
            return cmdResume(argv[2]);
        if (cmd == "stats" && argc >= 3 && argc <= 5) {
            return cmdStats(argv[2],
                            argc >= 4 ? std::strtod(argv[3], nullptr)
                                      : 0.1,
                            argc == 5 ? argv[4] : "activity");
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "vidi_trace: %s\n", e.what());
        return 2;
    }
    return usage();
}
