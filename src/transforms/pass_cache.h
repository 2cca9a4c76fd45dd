// Persistent pass-result cache: maps (canonical pipeline spec,
// structural hash of the input module) to the printed module the
// pipeline produced, so re-compiling an unchanged module through an
// unchanged pipeline replays cached IR instead of re-running passes.
//
// Keying: lookups are keyed on ir::hashOp — a direct structural hash
// (one walk over op kinds, operand numbering, attrs, types, regions) —
// never on a hash of printed text, so keying a module costs no string
// materialization. Byte hashing (hashBytes) survives only where text is
// the object itself: the spec+salt key component and the on-disk
// payload integrity check (replay parses stored text, so the stored text
// is what must be intact).
//
// Granularity: one entry per (module, pipeline), stored when a whole
// pipeline run completes; intermediate steps are not stored. Editing one
// function of a module, or changing any one pass option, misses the whole
// pipeline, and pipelines that share a prefix share no entry.
//
// With a directory the cache is persistent: each entry is one file named
// by the key hash, written atomically (temp + rename) so concurrent
// compilers sharing a --cache-dir never observe torn entries. Entries
// embed their full key and are re-verified on load; mismatches and
// corrupt files degrade to a miss. All operations are thread-safe: the
// module tasks of a batch share one cache through lookup() and store(),
// under its mutex alone.
#pragma once

#include "ir/hasher.h"

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

namespace paralift::transforms {

// The hashing primitives live with the IR they hash (ir/hasher.h); the
// transform layer keeps its historical spellings.
using ir::combineHash;
using ir::Hash128;
using ir::hashBytes;

//===----------------------------------------------------------------------===//
// PassResultCache
//===----------------------------------------------------------------------===//

class PassResultCache {
public:
  /// In-memory cache (one process).
  PassResultCache() = default;
  /// Persistent cache rooted at `dir` (created if absent). An empty dir
  /// string degrades to memory-only.
  explicit PassResultCache(std::string dir);
  /// Sweeps the disk store down to the configured limit (if any).
  ~PassResultCache();

  PassResultCache(const PassResultCache &) = delete;
  PassResultCache &operator=(const PassResultCache &) = delete;

  /// Finds the printed module that running `spec` produced on IR whose
  /// structural hash is `input`. Checks memory first, then disk; disk
  /// hits are promoted into memory. Returns nullopt on miss (and counts
  /// it). Nothing is claimed: two callers missing on one key both compute
  /// it, and both store the same result.
  std::optional<std::string> lookup(const Hash128 &input,
                                    const std::string &spec);

  /// Records a result. Overwrites any existing entry for the key (same
  /// key implies same value for deterministic passes).
  void store(const Hash128 &input, const std::string &spec, std::string ir);

  const std::string &directory() const { return dir_; }

  /// True once disk trouble (repeated read/write failure, e.g. ENOSPC)
  /// has demoted this cache to memory-only for the rest of its life.
  /// Demotion is a performance event, never a job failure: compiles
  /// simply stop replaying/persisting across processes. Counted once in
  /// the "cache.disk.disabled" metric and warned to stderr.
  bool diskDemoted() const {
    return diskDisabled_.load(std::memory_order_relaxed);
  }

  // Disk size bounds ---------------------------------------------------------
  // The on-disk store grows without bound by default (every distinct
  // (spec, input) pair ever compiled leaves a file). A byte limit turns
  // it into an LRU-by-mtime cache: evictToDiskLimit removes
  // oldest-modified entry files until the directory total fits. Sweeps
  // run at destruction (session shutdown), after every
  // CompilerSession::compileAll batch, and automatically mid-run once
  // stores have written more than half the limit since the last sweep —
  // so a long-lived session (or the future compile-server) stays within
  // ~1.5x the bound at all times instead of growing until shutdown.

  /// 0 (the default) disables the bound. Driven by --cache-limit=<MB> /
  /// $PARALIFT_CACHE_LIMIT at the CLI/session layer.
  void setDiskLimitBytes(uint64_t bytes);
  uint64_t diskLimitBytes() const;

  struct EvictionStats {
    uint64_t filesRemoved = 0;
    uint64_t bytesRemoved = 0;
    uint64_t bytesRemaining = 0;
  };
  /// Removes oldest-mtime entry files until the store is within the
  /// limit. No-op (zeros) for memory-only caches or when no limit is
  /// set. In-memory entries are untouched — they remain valid for this
  /// process; a future process simply re-misses. Safe against concurrent
  /// writers: eviction only unlinks completed entry files, and a reader
  /// losing the race degrades to a miss.
  EvictionStats evictToDiskLimit();

  // Statistics ---------------------------------------------------------------

  struct StatsSnapshot {
    uint64_t hits = 0;      ///< lookups served (memory or disk)
    uint64_t misses = 0;    ///< lookups that found nothing
    uint64_t stores = 0;    ///< entries recorded
    uint64_t diskHits = 0;  ///< subset of hits served from disk
    uint64_t passesExecuted = 0; ///< pass runs that executed transform code
    uint64_t passesReplayed = 0; ///< passes of the pipelines hits replayed
    /// Always 0: lookups never wait behind another caller's
    /// computation. Kept for readers of the snapshot.
    uint64_t waits = 0;
  };
  StatsSnapshot stats() const;
  /// One line, e.g. "pass-cache: hits=12 misses=3 stores=3 disk-hits=0
  /// passes-executed=3 passes-replayed=12".
  std::string statsStr() const;
  void resetStats();

  /// Bumped by the PassManager: a pass run that transformed IR, and the
  /// `passes` of a pipeline replayed from one hit.
  void notePassExecuted();
  void notePassesReplayed(uint64_t passes);

private:
  std::string keyFile(const Hash128 &key) const;
  static Hash128 keyHash(const Hash128 &input, const std::string &spec);
  /// Disk is usable: a directory was configured and no demotion yet.
  bool diskEnabled() const { return !dir_.empty() && !diskDemoted(); }
  /// One-shot demotion to memory-only (idempotent, thread-safe).
  void disableDisk(const char *reason);
  std::optional<std::string> loadFromDisk(const Hash128 &key,
                                          const Hash128 &input,
                                          const std::string &spec);
  /// Returns the bytes the entry file occupies on disk (header + payload),
  /// 0 when the write failed.
  uint64_t writeToDisk(const Hash128 &key, const Hash128 &input,
                       const std::string &spec, const std::string &ir);
  /// Sweeps once stores have accumulated more than half the limit in
  /// newly written bytes (one worker sweeps; the rest keep storing).
  void maybeAutoEvict(uint64_t bytesJustWritten);

  struct Hash128Hasher {
    size_t operator()(const Hash128 &h) const {
      return static_cast<size_t>(h.lo ^ (h.hi * 0x9e3779b97f4a7c15ull));
    }
  };

  std::string dir_;
  mutable std::mutex mutex_;
  std::unordered_map<Hash128, std::string, Hash128Hasher> entries_;
  StatsSnapshot stats_;
  uint64_t diskLimitBytes_ = 0;
  std::atomic<uint64_t> bytesSinceSweep_{0};
  std::atomic<bool> sweeping_{false};
  std::atomic<bool> diskDisabled_{false};
};

} // namespace paralift::transforms
