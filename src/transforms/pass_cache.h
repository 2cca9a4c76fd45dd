// Persistent pass-result cache: maps (canonical pipeline spec, input
// key) to the printed module the pipeline produced, so re-compiling an
// unchanged input through an unchanged pipeline replays cached IR instead
// of re-running passes.
//
// Keying: the caller (the session, driver/session.h) hashes the input;
// the cache folds in the spec and the build salt. Two kinds of input key
// share one key space:
//  - a source key, hashBytes of a CUDA source's text, taken before the
//    frontend runs, so a hit skips the frontend too. The frontend is a
//    function of the text and of the build, and the salt covers the
//    build.
//  - a module key, ir::hashOp of the module entering the pipeline — a
//    direct structural hash (one walk over op kinds, operand numbering,
//    attrs, types, regions) that costs no string materialization. A
//    source job's result is stored under both keys, so a module job
//    given the frontend's module replays it; in memory the two entries
//    share one text.
// Beyond those, byte hashing covers only the spec+salt key component and
// the on-disk payload integrity check (replay parses stored text, so the
// stored text is what must be intact).
//
// Granularity: one entry per (input, pipeline), stored when a whole
// pipeline run completes; intermediate steps are not stored. Editing a
// source anywhere (one trailing newline included) or one function of a
// module, or changing any one pass option, misses the whole pipeline, and
// pipelines that share a prefix share no entry.
//
// With a directory the cache is persistent: each entry is one file named
// by the key hash, written atomically (temp + rename) so concurrent
// compilers sharing a --cache-dir never observe torn entries. Entries
// embed their full key and are re-verified on load; mismatches and
// corrupt files degrade to a miss. The format is v5 (pass_cache.cpp);
// files of v1-v4 read as misses.
//
// Cost model: a memory hit is a lock and a shared_ptr copy: the text is
// shared, never copied. A disk hit reads the whole file (open, one fstat
// for its size, then read until it is in) into the string the memory
// entry then shares, cuts the header off its front, hashes the payload
// (hashBytes, 8 bytes per step) against the header's text hash and
// touches the file's mtime. All operations are thread-safe: the module
// tasks of a batch share one cache through lookup() and store(), under
// its mutex alone.
#pragma once

#include "ir/hasher.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
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

  /// Finds the printed module that running `spec` produced on the input
  /// keyed `input` (a source or module key; see the header). Checks
  /// memory first, then disk; disk hits are promoted into memory. Returns
  /// the entry's shared text, which a hit does not copy, or null on miss
  /// (and counts it). Nothing is claimed: two callers missing on one key
  /// both compute it, and both store the same result.
  std::shared_ptr<const std::string> lookup(const Hash128 &input,
                                            const std::string &spec);

  /// Records a result. Overwrites any existing entry for the key (same
  /// key implies same value for deterministic passes). Memory entries
  /// hold their text immutable and shared, so a result stored under two
  /// keys (a source job's source key and module key) is held once; each
  /// key still writes its own disk file.
  void store(const Hash128 &input, const std::string &spec,
             std::shared_ptr<const std::string> ir);
  void store(const Hash128 &input, const std::string &spec, std::string ir) {
    store(input, spec, std::make_shared<const std::string>(std::move(ir)));
  }

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

  /// Bumped by the session: the `passes` a job executed (failed steps
  /// included), and the `passes` of a pipeline replayed from one hit.
  void notePassesExecuted(uint64_t passes);
  void notePassesReplayed(uint64_t passes);

private:
  std::string keyFile(const Hash128 &key) const;
  static Hash128 keyHash(const Hash128 &input, const std::string &spec);
  /// Disk is usable: a directory was configured and no demotion yet.
  bool diskEnabled() const { return !dir_.empty() && !diskDemoted(); }
  /// One-shot demotion to memory-only (idempotent, thread-safe).
  void disableDisk(const char *reason);
  std::shared_ptr<const std::string> loadFromDisk(const std::string &path,
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
  std::unordered_map<Hash128, std::shared_ptr<const std::string>,
                     Hash128Hasher>
      entries_;
  StatsSnapshot stats_;
  uint64_t diskLimitBytes_ = 0;
  std::atomic<uint64_t> bytesSinceSweep_{0};
  std::atomic<bool> sweeping_{false};
  std::atomic<bool> diskDisabled_{false};
};

} // namespace paralift::transforms
