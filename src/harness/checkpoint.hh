/**
 * @file
 * Checkpoint container format constants and helpers.
 *
 * A checkpoint captures the complete warm microarchitectural state of
 * a System — caches with replacement metadata, MSHRs, fill/prefetch
 * queues, TLBs, prefetcher tables, DRAM controller state, core ROBs,
 * RNG streams and per-component clocks — so a measurement window can
 * resume from it bit-identically to an uninterrupted run.
 *
 * Container layout (everything little-endian; the normative byte-level
 * specification with a hexdump example is docs/CHECKPOINT_FORMAT.md):
 *
 *   offset 0   8 bytes  magic "BOPCKPT1"
 *   offset 8   u32      format version (currently 1)
 *   offset 12  u64      topology fingerprint
 *   offset 20  u32      section count
 *   then per section:
 *              4 bytes  ASCII section tag
 *              u64      payload length in bytes
 *              u32      CRC-32 of the payload
 *              ...      payload
 *
 * Sections (fixed order): "META" (save-time clock), "TRAC" (trace
 * source positions), "CORE" (per-core state), "HIER" (caches and
 * queues), "DRAM" (memory controllers). The header and every
 * section's CRC are validated before any section is applied, so a
 * corrupted checkpoint can never leave a System partially restored.
 *
 * The topology fingerprint hashes configFingerprint() plus the trace
 * names; it deliberately excludes numThreads and the fast-forward
 * toggle — both are host-side speed knobs under the determinism
 * contract, and a checkpoint must restore across them.
 *
 * The save/restore entry points are System member functions
 * (System::saveCheckpoint / restoreCheckpoint, declared in
 * sim/system.hh) whose definitions live in checkpoint.cc.
 */

#ifndef BOP_HARNESS_CHECKPOINT_HH
#define BOP_HARNESS_CHECKPOINT_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace bop
{

class System;

/** Magic bytes at the start of every checkpoint. */
constexpr char checkpointMagic[8] = {'B', 'O', 'P', 'C', 'K', 'P',
                                     'T', '1'};

/** Current checkpoint format version. */
constexpr std::uint32_t checkpointVersion = 1;

/** Fixed header size: magic + version + fingerprint + section count. */
constexpr std::size_t checkpointHeaderBytes = 8 + 4 + 8 + 4;

/** Per-section header size: tag + payload length + CRC. */
constexpr std::size_t checkpointSectionHeaderBytes = 4 + 8 + 4;

/** Number of sections in a version-1 checkpoint. */
constexpr std::uint32_t checkpointSectionCount = 5;

/**
 * Topology fingerprint of a System: a splitmix64 chain over the
 * config fingerprint string and the trace names. Exposed for the
 * format tests.
 */
std::uint64_t checkpointFingerprint(System &sys);

/**
 * Append @p n raw bytes to @p out (resize, then memcpy): the one
 * byte-append path behind the container and checkpoint-cache headers.
 */
void appendBytes(std::vector<std::uint8_t> &out, const void *bytes,
                 std::size_t n);

/** Little-endian u32 store and load, as in the container header. */
void putU32(std::vector<std::uint8_t> &out, std::uint32_t v);
std::uint32_t getU32(const std::uint8_t *p);

/**
 * Atomically replace @p path with @p bytes: write a sibling tmp file
 * (`<path>.tmp.<pid>.<n>`, unique per process and call), fflush +
 * fsync it, then rename it over @p path. On any failure the tmp file
 * is removed, @p path keeps its previous content, and a
 * std::runtime_error names @p what, the paths and — for a short
 * write — the bytes written. @p shortWrite writes only half the
 * bytes (a disk that filled up mid-write; fault injection).
 */
void writeFileAtomically(const std::string &path,
                         const std::vector<std::uint8_t> &bytes,
                         const std::string &what, bool shortWrite = false);

} // namespace bop

#endif // BOP_HARNESS_CHECKPOINT_HH
