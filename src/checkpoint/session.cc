#include "checkpoint/session.h"

#include <cstring>

#include "checkpoint/atomic_file.h"
#include "checkpoint/state_io.h"
#include "fault/fault_injector.h"
#include "sim/logging.h"
#include "trace/storage_line.h"

namespace vidi {

namespace {

// v2: VidiConfig lost its thread-count field; a v1 manifest is refused
// as foreign rather than misread.
constexpr char kManifestMagic[8] = {'V', 'I', 'D', 'I', 'S', 'S', 'N',
                                    '2'};
constexpr uint32_t kJournalRecordMagic = 0x314e4a56;  // "VJN1"

} // namespace

void
saveVidiConfig(StateWriter &w, const VidiConfig &cfg)
{
    w.b(cfg.record_output_content);
    w.u64(cfg.monitor_mask);
    w.u64(cfg.store_fifo_bytes);
    w.pod(cfg.pcie_bytes_per_sec);
    w.pod(cfg.clock_hz);
    w.u64(cfg.monitor.reservation_pool);
    w.u64(cfg.decoder_queue_capacity);
    w.u64(cfg.trace_region_bytes);
    w.u64(cfg.max_cycles);
    w.u8(uint8_t(cfg.kernel));
    w.u8(uint8_t(cfg.overflow_policy));
    w.u64(cfg.drain_backoff_limit);
    w.u64(cfg.stall_escalation_cycles);
    w.u64(cfg.replay_watchdog_cycles);
    w.u64(cfg.checkpoint_min_interval_ms);
    w.u64(cfg.job_timeout_ms);
    w.u32(cfg.max_retries);
    w.u64(cfg.retry_backoff_ms);

    saveFaultSpec(w, cfg.fault);
}

VidiConfig
loadVidiConfig(StateReader &r)
{
    VidiConfig cfg;
    cfg.record_output_content = r.b();
    cfg.monitor_mask = r.u64();
    cfg.store_fifo_bytes = size_t(r.u64());
    cfg.pcie_bytes_per_sec = r.pod<double>();
    cfg.clock_hz = r.pod<double>();
    cfg.monitor.reservation_pool = size_t(r.u64());
    cfg.decoder_queue_capacity = size_t(r.u64());
    cfg.trace_region_bytes = r.u64();
    cfg.max_cycles = r.u64();
    const uint8_t kernel = r.u8();
    if (kernel > uint8_t(KernelMode::ActivityDriven))
        fatal("unknown kernel mode %u in serialized config",
              unsigned(kernel));
    cfg.kernel = KernelMode(kernel);
    cfg.overflow_policy = OverflowPolicy(r.u8());
    cfg.drain_backoff_limit = r.u64();
    cfg.stall_escalation_cycles = r.u64();
    cfg.replay_watchdog_cycles = r.u64();
    cfg.checkpoint_min_interval_ms = r.u64();
    cfg.job_timeout_ms = r.u64();
    cfg.max_retries = r.u32();
    cfg.retry_backoff_ms = r.u64();

    cfg.fault = loadFaultSpec(r);
    return cfg;
}

namespace {

std::vector<uint8_t>
encodeManifest(const SessionManifest &m)
{
    StateWriter w;
    w.str(m.app);
    w.u8(m.mode);
    w.u64(m.seed);
    w.pod(m.scale);
    w.u64(m.checkpoint_every);
    w.u64(m.checkpoint_retain);
    w.str(m.trace_path);
    saveVidiConfig(w, m.cfg);

    std::vector<uint8_t> out;
    out.insert(out.end(), kManifestMagic,
               kManifestMagic + sizeof(kManifestMagic));
    const auto put32 = [&](uint32_t v) {
        for (int i = 0; i < 4; ++i)
            out.push_back(uint8_t(v >> (8 * i)));
    };
    put32(uint32_t(w.size()));
    put32(crc32(w.data().data(), w.size()));
    out.insert(out.end(), w.data().begin(), w.data().end());
    return out;
}

SessionManifest
decodeManifest(const std::vector<uint8_t> &bytes, const std::string &path)
{
    if (bytes.size() < sizeof(kManifestMagic) + 8 ||
        std::memcmp(bytes.data(), kManifestMagic,
                    sizeof(kManifestMagic)) != 0)
        fatal("%s is not a Vidi session manifest", path.c_str());
    const auto get32 = [&](size_t off) {
        uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= uint32_t(bytes[off + size_t(i)]) << (8 * i);
        return v;
    };
    const uint32_t len = get32(sizeof(kManifestMagic));
    const uint32_t crc = get32(sizeof(kManifestMagic) + 4);
    const size_t body_off = sizeof(kManifestMagic) + 8;
    if (bytes.size() - body_off != len)
        fatal("%s: manifest truncated", path.c_str());
    if (crc32(bytes.data() + body_off, len) != crc)
        fatal("%s: manifest CRC mismatch", path.c_str());

    StateReader r(bytes.data() + body_off, len, path);
    SessionManifest m;
    m.app = r.str();
    m.mode = r.u8();
    m.seed = r.u64();
    m.scale = r.pod<double>();
    m.checkpoint_every = r.u64();
    m.checkpoint_retain = r.u64();
    m.trace_path = r.str();
    m.cfg = loadVidiConfig(r);
    r.expectEnd();
    return m;
}

std::string
checkpointFileName(uint64_t cycle)
{
    return "ckpt-" + std::to_string(cycle) + ".vckp";
}

/** Parse journal bytes; a torn or corrupt tail simply ends the scan. */
std::vector<JournalEntry>
scanJournal(const std::vector<uint8_t> &bytes)
{
    std::vector<JournalEntry> entries;
    size_t off = 0;
    const auto get32 = [&](size_t at) {
        uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= uint32_t(bytes[at + size_t(i)]) << (8 * i);
        return v;
    };
    while (bytes.size() - off >= 12) {
        if (get32(off) != kJournalRecordMagic)
            break;
        const uint32_t len = get32(off + 4);
        const uint32_t crc = get32(off + 8);
        if (bytes.size() - off - 12 < len)
            break;  // torn tail: record body sheared off
        const uint8_t *body = bytes.data() + off + 12;
        if (crc32(body, len) != crc)
            break;  // torn or corrupt record
        StateReader r(body, len, "journal");
        JournalEntry e;
        e.cycle = r.u64();
        e.file = r.str();
        entries.push_back(std::move(e));
        off += 12 + len;
    }
    return entries;
}

} // namespace

Session::Session(std::string dir, SessionManifest manifest,
                 std::vector<JournalEntry> journal)
    : dir_(std::move(dir)), manifest_(std::move(manifest)),
      journal_(std::move(journal))
{
}

std::string
Session::filePath(const std::string &file) const
{
    return dir_ + "/" + file;
}

std::string
Session::manifestPath() const
{
    return filePath("manifest.vssn");
}

std::string
Session::journalPath() const
{
    return filePath("journal.vjnl");
}

Session
Session::create(const std::string &dir, const SessionManifest &manifest)
{
    makeDirs(dir);
    Session s(dir, manifest, {});
    writeFileAtomic(s.manifestPath(), encodeManifest(manifest));
    removeFileIfExists(s.journalPath());
    return s;
}

Session
Session::open(const std::string &dir)
{
    Session s(dir, {}, {});
    s.manifest_ = decodeManifest(readFileBytes(s.manifestPath()),
                                 s.manifestPath());
    if (fileExists(s.journalPath()))
        s.journal_ = scanJournal(readFileBytes(s.journalPath()));
    return s;
}

void
Session::appendJournal(const JournalEntry &entry)
{
    StateWriter w;
    w.u64(entry.cycle);
    w.str(entry.file);

    std::vector<uint8_t> rec;
    const auto put32 = [&](uint32_t v) {
        for (int i = 0; i < 4; ++i)
            rec.push_back(uint8_t(v >> (8 * i)));
    };
    put32(kJournalRecordMagic);
    put32(uint32_t(w.size()));
    put32(crc32(w.data().data(), w.size()));
    rec.insert(rec.end(), w.data().begin(), w.data().end());
    appendFileDurable(journalPath(), rec.data(), rec.size());
    journal_.push_back(entry);
}

void
Session::pruneRetired()
{
    const size_t retain = size_t(manifest_.checkpoint_retain);
    if (retain == 0 || journal_.size() <= retain)
        return;  // retain == 0: keep the full checkpoint ladder
    // Journal records are permanent (append-only); only the retired
    // checkpoint *files* are deleted. Recovery tolerates the missing
    // files because it probes before trusting.
    for (size_t i = 0; i + retain < journal_.size(); ++i)
        removeFileIfExists(filePath(journal_[i].file));
}

uint64_t
Session::commitCheckpoint(uint64_t cycle, const CheckpointImage &image,
                          FaultInjector *fault)
{
    const std::string file = checkpointFileName(cycle);
    const std::string path = filePath(file);
    const std::vector<uint8_t> bytes = encodeCheckpoint(image);

    if (fault != nullptr) {
        const uint64_t permille = fault->crashCheckpointPermille();
        if (permille != 0) {
            writeFileTorn(path, bytes.data(), bytes.size(), permille);
            throw SimulatedCrash(FaultKind::CrashDuringCheckpointWrite,
                                 cycle);
        }
    }

    writeFileAtomic(path, bytes);
    appendJournal({cycle, file});
    pruneRetired();
    return bytes.size();
}

bool
Session::scanForCheckpoint(uint64_t max_cycle, CheckpointImage *image,
                           std::string *path,
                           std::string *diagnosis) const
{
    // Entries older than the retention window are *expected* to be
    // missing (their files were pruned); only losses inside the window
    // are worth a diagnosis line. retain == 0 keeps everything, so any
    // miss is anomalous.
    const size_t retain = manifest_.checkpoint_retain == 0
                              ? journal_.size()
                              : size_t(manifest_.checkpoint_retain);
    for (size_t i = journal_.size(); i-- > 0;) {
        const JournalEntry &e = journal_[i];
        if (e.cycle > max_cycle)
            continue;
        const std::string p = filePath(e.file);
        if (!fileExists(p)) {
            if (diagnosis != nullptr && i + retain >= journal_.size())
                *diagnosis += p + ": missing\n";
            continue;
        }
        const std::vector<uint8_t> bytes = readFileBytes(p);
        if (!probeCheckpoint(bytes.data(), bytes.size())) {
            if (diagnosis != nullptr)
                *diagnosis +=
                    p + ": damaged (failed CRC/length validation)\n";
            continue;
        }
        if (image != nullptr)
            *image = decodeCheckpoint(bytes.data(), bytes.size(), p);
        if (path != nullptr)
            *path = p;
        return true;
    }
    return false;
}

bool
Session::latestCheckpoint(CheckpointImage *image, std::string *path,
                          std::string *diagnosis) const
{
    return scanForCheckpoint(~0ull, image, path, diagnosis);
}

bool
Session::nearestCheckpoint(uint64_t cycle, CheckpointImage *image,
                           std::string *path, std::string *diagnosis) const
{
    return scanForCheckpoint(cycle, image, path, diagnosis);
}

} // namespace vidi
