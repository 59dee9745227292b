/**
 * @file
 * Checkpoint save/restore of a System's warm microarchitectural state
 * (container format: checkpoint.hh, normative spec:
 * docs/CHECKPOINT_FORMAT.md).
 *
 * The entry points are System member functions (full access to the
 * simulator's private state) defined here rather than in sim/ so the
 * container logic, like the experiment harness, stays in one place:
 * everything that links bop_harness can save and restore.
 *
 * Restore discipline: the fixed header and every section header and
 * CRC are validated against the byte buffer *before* any section
 * payload is applied to the System, so a truncated, corrupted or
 * mismatched checkpoint is rejected with a CheckpointError naming the
 * offending byte offset and the System is left untouched. Payload
 * decoding (after CRC validation) can still throw — e.g. a
 * semantically impossible field a CRC cannot catch because the file
 * was written by a buggy writer — which aborts mid-apply; callers
 * treat any CheckpointError as "this System is not usable" in that
 * case. The CRC pass makes the common failure modes (truncation, bit
 * rot, wrong file) fail before the first byte is applied.
 */

#include "harness/checkpoint.hh"

#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <unistd.h>

#include "common/fault.hh"
#include "common/rng.hh"
#include "common/serializer.hh"
#include "harness/experiment.hh"
#include "sim/system.hh"

namespace bop
{

namespace
{

/** Little-endian u64: the low word, then the high word. */
void
putU64(std::vector<std::uint8_t> &out, std::uint64_t v)
{
    putU32(out, static_cast<std::uint32_t>(v));
    putU32(out, static_cast<std::uint32_t>(v >> 32));
}

std::uint64_t
getU64(const std::uint8_t *p)
{
    return getU32(p) | static_cast<std::uint64_t>(getU32(p + 4)) << 32;
}

/** Section tags, in on-disk order. */
constexpr const char *sectionTags[checkpointSectionCount] = {
    "META", "TRAC", "CORE", "HIER", "DRAM",
};

/** A located, CRC-validated section within a checkpoint buffer. */
struct SectionView
{
    const std::uint8_t *payload = nullptr;
    std::size_t length = 0;
    std::uint64_t offset = 0; ///< payload's absolute byte offset
};

/**
 * Validate the fixed header and every section header and CRC of
 * @p bytes against the expected fingerprint; returns the located
 * sections in on-disk order. Throws CheckpointError naming the byte
 * offset of the first inconsistency. Does not touch any System.
 */
std::vector<SectionView>
validateContainer(const std::vector<std::uint8_t> &bytes,
                  std::uint64_t expected_fingerprint)
{
    if (bytes.size() < checkpointHeaderBytes) {
        throw CheckpointError(
            "checkpoint truncated: " + std::to_string(bytes.size()) +
                " byte(s), header needs " +
                std::to_string(checkpointHeaderBytes),
            bytes.size());
    }
    if (std::memcmp(bytes.data(), checkpointMagic,
                    sizeof(checkpointMagic)) != 0) {
        throw CheckpointError("bad magic: not a BOPCKPT1 checkpoint", 0);
    }
    const std::uint32_t version = getU32(bytes.data() + 8);
    if (version != checkpointVersion) {
        throw CheckpointError(
            "unsupported checkpoint format version " +
                std::to_string(version) + " (expected " +
                std::to_string(checkpointVersion) + ")",
            8);
    }
    const std::uint64_t fingerprint = getU64(bytes.data() + 12);
    if (fingerprint != expected_fingerprint) {
        throw CheckpointError(
            "topology fingerprint mismatch: checkpoint was saved from "
            "an incompatible configuration or trace set",
            12);
    }
    const std::uint32_t sections = getU32(bytes.data() + 20);
    if (sections != checkpointSectionCount) {
        throw CheckpointError(
            "bad section count " + std::to_string(sections) +
                " (expected " +
                std::to_string(checkpointSectionCount) + ")",
            20);
    }

    std::vector<SectionView> views;
    std::size_t pos = checkpointHeaderBytes;
    for (std::uint32_t i = 0; i < sections; ++i) {
        if (bytes.size() - pos < checkpointSectionHeaderBytes) {
            throw CheckpointError(
                "checkpoint truncated inside section header " +
                    std::to_string(i),
                bytes.size());
        }
        if (std::memcmp(bytes.data() + pos, sectionTags[i], 4) != 0) {
            throw CheckpointError(
                std::string("bad section tag (expected \"") +
                    sectionTags[i] + "\")",
                pos);
        }
        const std::uint64_t length = getU64(bytes.data() + pos + 4);
        const std::uint32_t stored_crc = getU32(bytes.data() + pos + 12);
        const std::size_t payload_pos =
            pos + checkpointSectionHeaderBytes;
        if (length > bytes.size() - payload_pos) {
            throw CheckpointError(
                std::string("section \"") + sectionTags[i] +
                    "\" length " + std::to_string(length) +
                    " overruns the checkpoint",
                pos + 4);
        }
        const std::uint32_t actual_crc =
            crc32(bytes.data() + payload_pos,
                  static_cast<std::size_t>(length));
        if (actual_crc != stored_crc) {
            throw CheckpointError(
                std::string("section \"") + sectionTags[i] +
                    "\" CRC mismatch (payload corrupted)",
                pos + 12);
        }
        views.push_back({bytes.data() + payload_pos,
                         static_cast<std::size_t>(length), payload_pos});
        pos = payload_pos + static_cast<std::size_t>(length);
    }
    if (pos != bytes.size()) {
        throw CheckpointError(
            std::to_string(bytes.size() - pos) +
                " trailing byte(s) after the last section",
            pos);
    }
    return views;
}

} // namespace

void
appendBytes(std::vector<std::uint8_t> &out, const void *bytes,
            std::size_t n)
{
    if (n == 0)
        return;
    const std::size_t at = out.size();
    out.resize(at + n);
    std::memcpy(out.data() + at, bytes, n);
}

void
putU32(std::vector<std::uint8_t> &out, std::uint32_t v)
{
    std::uint8_t bytes[4];
    for (int i = 0; i < 4; ++i)
        bytes[i] = static_cast<std::uint8_t>(v >> (8 * i));
    appendBytes(out, bytes, sizeof bytes);
}

std::uint32_t
getU32(const std::uint8_t *p)
{
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
    return v;
}

std::uint64_t
checkpointFingerprint(System &sys)
{
    // splitmix64 chain over the config fingerprint string and the
    // trace names. numThreads and the fast-forward toggle are
    // host-side speed knobs under the determinism contract and are
    // deliberately absent (configFingerprint's describe() excludes
    // them), so a checkpoint restores across both.
    std::uint64_t h = 0x424f50434b505431ull; // "BOPCKPT1"
    auto mix = [&h](const std::string &str) {
        for (const char c : str)
            h = splitmix64(h ^ static_cast<std::uint8_t>(c));
        h = splitmix64(h ^ str.size());
    };
    mix(configFingerprint(sys.config()));
    for (int c = 0; c < sys.coreCount(); ++c)
        mix(sys.traceSource(c).name());
    return h;
}

std::vector<std::uint8_t>
System::saveCheckpointBytes()
{
    std::vector<std::uint8_t> payloads[checkpointSectionCount];

    { // META: the global clock.
        Serializer s(payloads[0]);
        s.value(now);
    }
    { // TRAC: every trace source's generator/replay state.
        Serializer s(payloads[1]);
        for (auto &t : traces)
            t->serialize(s);
    }
    { // CORE: per-core ROB, waiting lists, predictor, counters.
        Serializer s(payloads[2]);
        for (auto &c : cores)
            c->serialize(s);
    }
    { // HIER: caches, queues, prefetchers, TLBs, policy state.
        Serializer s(payloads[3]);
        hier.serialize(s);
    }
    { // DRAM: memory controller bus/bank/queue state.
        Serializer s(payloads[4]);
        hier.serializeDram(s);
    }

    std::vector<std::uint8_t> out;
    std::size_t total = checkpointHeaderBytes;
    for (const auto &p : payloads)
        total += checkpointSectionHeaderBytes + p.size();
    out.reserve(total);

    appendBytes(out, checkpointMagic, sizeof checkpointMagic);
    putU32(out, checkpointVersion);
    putU64(out, checkpointFingerprint(*this));
    putU32(out, checkpointSectionCount);
    for (std::uint32_t i = 0; i < checkpointSectionCount; ++i) {
        const auto &p = payloads[i];
        appendBytes(out, sectionTags[i], 4);
        putU64(out, p.size());
        putU32(out, crc32(p.data(), p.size()));
        appendBytes(out, p.data(), p.size());
    }
    return out;
}

void
writeFileAtomically(const std::string &path,
                    const std::vector<std::uint8_t> &bytes,
                    const std::string &what, bool shortWrite)
{
    static std::atomic<unsigned long> serial{0};
    const std::string tmp = path + ".tmp." + std::to_string(::getpid()) +
                            "." + std::to_string(serial++);

    std::FILE *f = std::fopen(tmp.c_str(), "wb");
    if (!f) {
        throw std::runtime_error("cannot open " + what +
                                 " file for writing: " + tmp);
    }
    const std::size_t written = std::fwrite(
        bytes.data(), 1, shortWrite ? bytes.size() / 2 : bytes.size(), f);
    const bool synced = std::fflush(f) == 0 && ::fsync(fileno(f)) == 0;
    const bool closed = std::fclose(f) == 0;

    if (written != bytes.size() || !synced || !closed) {
        std::remove(tmp.c_str());
        throw std::runtime_error(
            "short write to " + what + ": " + path + " (" +
            std::to_string(written) + "/" +
            std::to_string(bytes.size()) + " bytes written)");
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        throw std::runtime_error("cannot rename " + what +
                                 " into place: " + tmp + " -> " + path);
    }
}

void
System::saveCheckpoint(const std::string &path)
{
    // Atomic save: a crash (or injected fault) anywhere before the
    // rename leaves the previous checkpoint intact and never a
    // plausible-looking truncated file at the target path. Injection
    // point ckpt_write_short (docs/ROBUSTNESS.md): behave like a disk
    // that filled up mid-save.
    writeFileAtomically(path, saveCheckpointBytes(), "checkpoint",
                        FaultPlan::global().fireCounted("ckpt_write_short"));
}

void
System::restoreCheckpointBytes(const std::vector<std::uint8_t> &bytes)
{
    const std::vector<SectionView> sections =
        validateContainer(bytes, checkpointFingerprint(*this));

    auto loader = [&sections](std::uint32_t i) {
        return Serializer(sections[i].payload, sections[i].length,
                          sections[i].offset);
    };

    { // META
        Serializer s = loader(0);
        s.value(now);
        s.finish("META section");
    }
    { // TRAC
        Serializer s = loader(1);
        for (auto &t : traces)
            t->serialize(s);
        s.finish("TRAC section");
    }
    { // CORE
        Serializer s = loader(2);
        for (auto &c : cores)
            c->serialize(s);
        s.finish("CORE section");
    }
    { // HIER
        Serializer s = loader(3);
        hier.serialize(s);
        s.finish("HIER section");
    }
    { // DRAM
        Serializer s = loader(4);
        hier.serializeDram(s);
        s.finish("DRAM section");
    }

    // The run-control state belongs to a runUntilRetired() in flight,
    // never to a checkpoint (saves happen between runs); reset it and
    // drop every cached horizon for recomputation under the restored
    // clock.
    stopTarget = 0;
    batchTargetAt = neverCycle;
    for (auto &h : coreHorizon)
        h = 0;
    hierHorizon = 0;
}

void
System::restoreCheckpoint(const std::string &path)
{
    std::ifstream f(path, std::ios::binary);
    if (!f) {
        throw std::runtime_error("cannot open checkpoint file: " +
                                 path);
    }
    std::vector<std::uint8_t> bytes(
        (std::istreambuf_iterator<char>(f)),
        std::istreambuf_iterator<char>());
    restoreCheckpointBytes(bytes);
}

} // namespace bop
