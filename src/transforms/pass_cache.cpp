#include "transforms/pass_cache.h"

#include "support/failpoint.h"
#include "support/metrics.h"
#include "support/trace.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string_view>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

namespace paralift::transforms {

//===----------------------------------------------------------------------===//
// PassResultCache
//===----------------------------------------------------------------------===//

namespace {
// Registry mirrors of the private per-cache stats: every PassResultCache
// bumps the same process-wide "cache.*" counters, so one metrics
// snapshot covers all caches a process creates (env cache, per-session
// caches, tests). Resolved once; each bump is one relaxed atomic add on
// paths that already hold the cache mutex or do file I/O.
struct CacheCounters {
  metrics::Counter &hits;
  metrics::Counter &misses;
  metrics::Counter &stores;
  metrics::Counter &diskHits;
  metrics::Counter &passesExecuted;
  metrics::Counter &passesReplayed;
  metrics::Counter &evictedFiles;
  metrics::Counter &evictedBytes;
};

CacheCounters &cacheCounters() {
  auto &reg = metrics::MetricsRegistry::instance();
  static CacheCounters *c = new CacheCounters{
      reg.counter("cache.hits"),          reg.counter("cache.misses"),
      reg.counter("cache.stores"),        reg.counter("cache.disk_hits"),
      reg.counter("cache.passes_executed"),
      reg.counter("cache.passes_replayed"),
      reg.counter("cache.evicted_files"), reg.counter("cache.evicted_bytes")};
  return *c;
}
} // namespace

PassResultCache::PassResultCache(std::string dir) : dir_(std::move(dir)) {
  if (dir_.empty())
    return;
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec)
    dir_.clear(); // unwritable directory: degrade to memory-only
}

PassResultCache::~PassResultCache() { evictToDiskLimit(); }

void PassResultCache::setDiskLimitBytes(uint64_t bytes) {
  std::lock_guard<std::mutex> lock(mutex_);
  diskLimitBytes_ = bytes;
}

uint64_t PassResultCache::diskLimitBytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return diskLimitBytes_;
}

void PassResultCache::disableDisk(const char *reason) {
  if (diskDisabled_.exchange(true, std::memory_order_relaxed))
    return;
  metrics::MetricsRegistry::instance().counter("cache.disk.disabled").add();
  std::fprintf(stderr,
               "paralift: warning: pass cache demoted to memory-only "
               "(%s); dir=%s\n",
               reason, dir_.c_str());
}

PassResultCache::EvictionStats PassResultCache::evictToDiskLimit() {
  EvictionStats out;
  uint64_t limit = diskLimitBytes();
  if (!diskEnabled() || limit == 0)
    return out;
  trace::TraceSpan span("cache:evict", "cache");
  bytesSinceSweep_.store(0, std::memory_order_relaxed);
  // Snapshot the directory; the filesystem is the source of truth (other
  // processes may share the dir), entries written after the snapshot
  // simply survive this sweep.
  struct File {
    std::filesystem::path path;
    std::filesystem::file_time_type mtime;
    uint64_t size;
  };
  std::vector<File> files;
  uint64_t total = 0;
  std::error_code ec;
  for (std::filesystem::directory_iterator it(dir_, ec), end;
       !ec && it != end; it.increment(ec)) {
    if (!it->is_regular_file(ec) || it->path().extension() != ".pir")
      continue;
    std::error_code fec;
    uint64_t size = it->file_size(fec);
    auto mtime = std::filesystem::last_write_time(it->path(), fec);
    if (fec)
      continue; // raced with a concurrent unlink
    files.push_back({it->path(), mtime, size});
    total += size;
  }
  std::sort(files.begin(), files.end(),
            [](const File &a, const File &b) { return a.mtime < b.mtime; });
  for (const File &f : files) {
    if (total <= limit)
      break;
    std::error_code rec;
    if (std::filesystem::remove(f.path, rec) && !rec) {
      total -= f.size;
      ++out.filesRemoved;
      out.bytesRemoved += f.size;
    }
  }
  if (out.filesRemoved) {
    cacheCounters().evictedFiles.add(out.filesRemoved);
    cacheCounters().evictedBytes.add(out.bytesRemoved);
  }
  out.bytesRemaining = total;
  return out;
}

void PassResultCache::maybeAutoEvict(uint64_t bytesJustWritten) {
  uint64_t limit = diskLimitBytes();
  if (!diskEnabled() || limit == 0)
    return;
  uint64_t pending = bytesSinceSweep_.fetch_add(bytesJustWritten,
                                                std::memory_order_relaxed) +
                     bytesJustWritten;
  // Half the limit of fresh writes between sweeps bounds the store to
  // ~1.5x the limit at any instant; the directory scan stays off the
  // common store path.
  if (pending < std::max<uint64_t>(limit / 2, 1))
    return;
  if (sweeping_.exchange(true, std::memory_order_acquire))
    return; // another worker is already sweeping
  evictToDiskLimit();
  sweeping_.store(false, std::memory_order_release);
}

namespace {

/// Closes a file descriptor when it goes out of scope.
class FdGuard {
public:
  explicit FdGuard(int fd) : fd_(fd) {}
  ~FdGuard() {
    if (fd_ >= 0)
      ::close(fd_);
  }
  FdGuard(const FdGuard &) = delete;
  FdGuard &operator=(const FdGuard &) = delete;
  int get() const { return fd_; }

private:
  int fd_;
};

/// Build fingerprint mixed into every key: entries written by a build
/// with different pass semantics, or (for source keys) a different
/// frontend, must read as misses, never replay.
/// PARALIFT_BUILD_STAMP is injected by CMake at configure time; the
/// translation-unit timestamp covers direct rebuilds of this file. (An
/// incremental rebuild that recompiles only a pass or frontend .cpp keeps
/// the salt — clear the cache dir when iterating on pass or frontend
/// semantics without reconfiguring.)
const std::string &buildSalt() {
  static const std::string salt =
#ifdef PARALIFT_BUILD_STAMP
      std::string(PARALIFT_BUILD_STAMP);
#else
      std::string(__DATE__ " " __TIME__);
#endif
  return salt;
}

} // namespace

Hash128 PassResultCache::keyHash(const Hash128 &input,
                                 const std::string &spec) {
  return combineHash(input, hashBytes(spec + "\n" + buildSalt()));
}

std::string PassResultCache::keyFile(const Hash128 &key) const {
  return dir_ + "/" + key.hex() + ".pir";
}

std::shared_ptr<const std::string>
PassResultCache::lookup(const Hash128 &input, const std::string &spec) {
  Hash128 key = keyHash(input, spec);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      ++stats_.hits;
      cacheCounters().hits.add();
      return it->second;
    }
  }
  // Disk I/O happens outside the lock so module tasks hitting memory
  // entries never queue behind a file read.
  if (diskEnabled()) {
    const std::string path = keyFile(key);
    if (auto fromDisk = loadFromDisk(path, input, spec)) {
      // Refresh the entry's mtime: the eviction sweep is LRU-by-mtime,
      // and a disk hit is a use. (Memory hits were either stored or
      // disk-promoted by this process, so their files are recent
      // already — recency holds at process granularity.)
      std::error_code ec;
      std::filesystem::last_write_time(
          path, std::filesystem::file_time_type::clock::now(), ec);
      std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.hits;
      ++stats_.diskHits;
      cacheCounters().hits.add();
      cacheCounters().diskHits.add();
      entries_.emplace(key, fromDisk);
      return fromDisk;
    }
  }
  std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.misses;
  cacheCounters().misses.add();
  return nullptr;
}

void PassResultCache::store(const Hash128 &input, const std::string &spec,
                            std::shared_ptr<const std::string> ir) {
  Hash128 key = keyHash(input, spec);
  // Write the file outside the lock (the temp+rename protocol already
  // tolerates concurrent writers of one key; same key implies same
  // value for deterministic passes).
  if (diskEnabled()) {
    uint64_t written = writeToDisk(key, input, spec, *ir);
    if (!written) {
      // ENOSPC, unwritable dir, rename failure (or an injected fault):
      // retry once after a short backoff — transient pressure often
      // clears — then demote to memory-only. Cache trouble degrades
      // performance, never jobs.
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      written = writeToDisk(key, input, spec, *ir);
      if (!written)
        disableDisk("disk write failed twice");
    }
    if (written)
      maybeAutoEvict(written);
  }
  std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.stores;
  cacheCounters().stores.add();
  entries_[key] = std::move(ir);
}

// On-disk entry format (header lines, a separator, then the IR verbatim):
//   paralift-pass-cache v5
//   input <32 hex>                    (the source or module key)
//   spec <canonical pipeline spec>
//   text <32 hex>                     (hashBytes of the payload below)
//   ---
//   <printed module>
// The header repeats the full key so a (vanishingly unlikely) filename
// hash collision, or a stale file from an incompatible version, reads as
// a miss instead of replaying wrong IR; the text hash catches truncated
// or corrupted payloads. Older files fail the magic check and degrade to
// misses: v1 (printed-text keying, no text line), v2 (per-function
// entries, and module entries with a "funcs" line), v3 (one entry per
// pass step, with an "output" hash line) and v4 (keys and text hashes
// from the byte-at-a-time hashBytes).
std::shared_ptr<const std::string>
PassResultCache::loadFromDisk(const std::string &path, const Hash128 &input,
                              const std::string &spec) {
  // Injected IO error (a real one would be an open/read failing with
  // errno set, which the stream API folds into "no entry"): retry once
  // after a short backoff, then demote to memory-only. Corrupt *content*
  // below is deliberately not a demotion — one bad file is a miss, not
  // evidence the disk is failing.
  if (failpoint::shouldFail("cache.disk.read")) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    if (failpoint::shouldFail("cache.disk.read")) {
      disableDisk("disk read failed twice");
      return nullptr;
    }
  }
  // POSIX calls, as in the native tier's loader: an open, one fstat for
  // the size and one read cost fewer system calls than stdio or streams.
  FdGuard file(::open(path.c_str(), O_RDONLY));
  if (file.get() < 0)
    return nullptr;
  trace::TraceSpan span("cache:disk-read", "cache");
  if (span.active())
    span.annotate("spec", spec);
  // The whole file in one read; the header is then cut off the front,
  // so the payload stays in the string the memory entry shares.
  struct stat st;
  if (::fstat(file.get(), &st) != 0 || st.st_size < 0)
    return nullptr;
  std::string ir(static_cast<size_t>(st.st_size), '\0');
  for (size_t got = 0; got < ir.size();) {
    ssize_t n = ::read(file.get(), ir.data() + got, ir.size() - got);
    if (n < 0 && errno == EINTR)
      continue;
    if (n <= 0)
      return nullptr; // a read error, or the file shrank
    got += static_cast<size_t>(n);
  }
  std::string_view header[5]; // magic, input, spec, text, "---"
  size_t pos = 0;
  for (std::string_view &line : header) {
    size_t nl = ir.find('\n', pos);
    if (nl == std::string::npos)
      return nullptr;
    line = std::string_view(ir).substr(pos, nl - pos);
    pos = nl + 1;
  }
  if (header[0] != "paralift-pass-cache v5" ||
      header[1].substr(0, 6) != "input " || header[2].substr(0, 5) != "spec " ||
      header[3].substr(0, 5) != "text " || header[4] != "---")
    return nullptr;
  auto storedInput = Hash128::fromHex(std::string(header[1].substr(6)));
  auto storedText = Hash128::fromHex(std::string(header[3].substr(5)));
  if (!storedInput || !storedText || *storedInput != input ||
      header[2].substr(5) != spec)
    return nullptr;
  ir.erase(0, pos);
  if (hashBytes(ir) != *storedText)
    return nullptr; // truncated or corrupted payload
  return std::make_shared<const std::string>(std::move(ir));
}

uint64_t PassResultCache::writeToDisk(const Hash128 &key,
                                      const Hash128 &input,
                                      const std::string &spec,
                                      const std::string &ir) {
  trace::TraceSpan span("cache:disk-write", "cache");
  if (span.active())
    span.annotate("spec", spec);
  // error = simulated ENOSPC (caller retries then demotes);
  // partial-write = short payload that reports success here and
  // surfaces on read-back as a text-hash mismatch (a miss).
  failpoint::Action inject = failpoint::evaluate("cache.disk.write");
  if (inject == failpoint::Action::Error)
    return 0;
  std::string path = keyFile(key);
  // Unique temp name per process+thread+key (thread ids alone are not
  // unique across processes sharing one cache dir); rename is atomic on
  // POSIX, so concurrent writers of the same key both land a complete
  // file.
  std::ostringstream tmp;
  tmp << path << ".tmp." << ::getpid() << "."
      << std::this_thread::get_id();
  {
    std::ofstream out(tmp.str(), std::ios::binary | std::ios::trunc);
    if (!out)
      return 0;
    out << "paralift-pass-cache v5\n"
        << "input " << input.hex() << "\n"
        << "spec " << spec << "\n"
        << "text " << hashBytes(ir).hex() << "\n"
        << "---\n";
    size_t irBytes = ir.size();
    if (inject == failpoint::Action::PartialWrite)
      irBytes /= 2; // torn payload, "successful" write
    out.write(ir.data(), static_cast<std::streamsize>(irBytes));
    if (!out) {
      // Failed write (e.g. disk full): do not litter the shared dir.
      out.close();
      std::error_code ec;
      std::filesystem::remove(tmp.str(), ec);
      return 0;
    }
  }
  std::error_code ec;
  // Actual file bytes (header included) so the auto-sweep threshold
  // tracks real disk growth, not just payload size.
  uint64_t written = std::filesystem::file_size(tmp.str(), ec);
  if (ec)
    written = ir.size();
  std::filesystem::rename(tmp.str(), path, ec);
  if (ec) {
    std::filesystem::remove(tmp.str(), ec);
    return 0;
  }
  return written;
}

PassResultCache::StatsSnapshot PassResultCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

std::string PassResultCache::statsStr() const {
  StatsSnapshot s = stats();
  std::ostringstream os;
  os << "pass-cache: hits=" << s.hits << " misses=" << s.misses
     << " stores=" << s.stores << " disk-hits=" << s.diskHits
     << " passes-executed=" << s.passesExecuted
     << " passes-replayed=" << s.passesReplayed;
  return os.str();
}

void PassResultCache::resetStats() {
  std::lock_guard<std::mutex> lock(mutex_);
  stats_ = StatsSnapshot{};
}

void PassResultCache::notePassesExecuted(uint64_t passes) {
  std::lock_guard<std::mutex> lock(mutex_);
  stats_.passesExecuted += passes;
  cacheCounters().passesExecuted.add(passes);
}

void PassResultCache::notePassesReplayed(uint64_t passes) {
  std::lock_guard<std::mutex> lock(mutex_);
  stats_.passesReplayed += passes;
  cacheCounters().passesReplayed.add(passes);
}

} // namespace paralift::transforms
