// Module::build: emit, compile with a spawned C compiler, dlopen.
#include "native/native.h"

#include "native/emit.h"
#include "support/failpoint.h"
#include "support/metrics.h"
#include "support/trace.h"

#include <chrono>
#include <cstring>
#include <filesystem>
#include <fcntl.h>
#include <dlfcn.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

extern char **environ;

namespace paralift::native {

namespace {

struct BuildMetrics {
  metrics::Counter &builds;
  metrics::Counter &failures;
  metrics::Histogram &seconds;
};

BuildMetrics &buildMetrics() {
  auto &reg = metrics::MetricsRegistry::instance();
  static BuildMetrics *m = new BuildMetrics{
      reg.counter("native.builds"), reg.counter("native.build_failures"),
      reg.histogram("native.build_seconds")};
  return *m;
}

/// A fresh directory under temp_directory_path(), removed with everything
/// in it when the build is done, whichever way it ends.
class TempDir {
public:
  TempDir() {
    std::filesystem::path base = std::filesystem::temp_directory_path();
    std::string tmpl = (base / "paralift-native-XXXXXX").string();
    if (!mkdtemp(tmpl.data()))
      throw std::runtime_error("cannot create a directory under " +
                               base.string() + ": " + std::strerror(errno));
    path_ = tmpl;
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  TempDir(const TempDir &) = delete;
  TempDir &operator=(const TempDir &) = delete;

  std::string file(const char *name) const { return path_ + "/" + name; }

private:
  std::string path_;
};

void writeFile(const std::string &path, const std::string &text) {
  int fd = open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0600);
  if (fd < 0)
    throw std::runtime_error("cannot write " + path + ": " +
                             std::strerror(errno));
  size_t done = 0;
  while (done < text.size()) {
    ssize_t n = write(fd, text.data() + done, text.size() - done);
    if (n < 0 && errno == EINTR)
      continue;
    if (n <= 0) {
      int err = errno;
      close(fd);
      throw std::runtime_error("cannot write " + path + ": " +
                               std::strerror(err));
    }
    done += static_cast<size_t>(n);
  }
  close(fd);
}

/// The last `limit` bytes of the compiler's output, for the diagnostic.
std::string logTail(const std::string &path, size_t limit = 2000) {
  std::string text;
  int fd = open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0)
    return text;
  char buf[4096];
  for (ssize_t n; (n = read(fd, buf, sizeof buf)) > 0;)
    text.append(buf, static_cast<size_t>(n));
  close(fd);
  return text.size() > limit ? text.substr(text.size() - limit) : text;
}

/// Runs the compiler on `source` into `object`, its output into `log`,
/// and returns its wait status. The child is reaped before this returns.
int runCompiler(const std::string &source, const std::string &object,
                const std::string &log) {
  const char *argv[] = {PARALIFT_NATIVE_CC, "-x", "c", "-std=c11", "-O3",
                        "-fPIC", "-shared", "-ffp-contract=off",
                        "-fexceptions", "-o", object.c_str(), source.c_str(),
                        nullptr};
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, 0, "/dev/null", O_RDONLY, 0);
  posix_spawn_file_actions_addopen(&actions, 1, log.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0600);
  posix_spawn_file_actions_adddup2(&actions, 1, 2);
  pid_t pid;
  int rc = posix_spawnp(&pid, argv[0], &actions, nullptr,
                        const_cast<char *const *>(argv), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0)
    throw std::runtime_error(std::string("cannot start ") + argv[0] + ": " +
                             std::strerror(rc));
  int status = 0;
  while (waitpid(pid, &status, 0) < 0)
    if (errno != EINTR)
      throw std::runtime_error(std::string("cannot wait for ") + argv[0] +
                               ": " + std::strerror(errno));
  return status;
}

/// Compiles `unit` and loads the object; throws with the reason when
/// either fails.
void *compileAndLoad(const std::string &unit) {
  TempDir dir;
  std::string source = dir.file("unit.c"), object = dir.file("unit.so"),
              log = dir.file("cc.log");
  writeFile(source, unit);
  if (failpoint::shouldFail("native.compile"))
    throw std::runtime_error("the C compiler failed (injected fault at "
                             "failpoint 'native.compile')");
  int status = runCompiler(source, object, log);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
    throw std::runtime_error(
        std::string(PARALIFT_NATIVE_CC) + " failed (" +
        (WIFEXITED(status)
             ? "exit status " + std::to_string(WEXITSTATUS(status))
             : "signal " + std::to_string(WTERMSIG(status))) +
        "):\n" + logTail(log));
  void *handle = dlopen(object.c_str(), RTLD_NOW | RTLD_LOCAL);
  if (!handle)
    throw std::runtime_error(std::string("dlopen failed: ") + dlerror());
  return handle;
}

} // namespace

std::shared_ptr<const Module> Module::build(const driver::CompileResult &cc,
                                            const std::string &name,
                                            DiagnosticEngine &diag) {
  BuildMetrics &metrics = buildMetrics();
  auto start = std::chrono::steady_clock::now();
  std::shared_ptr<Module> module;
  std::string error;
  {
    trace::TraceSpan span(
        trace::enabled() ? "native.build:" + name : std::string(), "native");
    try {
      std::optional<std::string> unit;
      if (!cc.ok)
        error = "the module did not compile";
      else if (!(unit = emitC(cc.module.get(), diag)))
        error = "the emitter rejected the module";
      else {
        if (span.active())
          span.annotate("bytes", std::to_string(unit->size()));
        module.reset(new Module(compileAndLoad(*unit)));
        auto *count = static_cast<const uint32_t *>(
            dlsym(module->handle_, "pl_num_entries"));
        auto *entries = static_cast<const abi::pl_entry *>(
            dlsym(module->handle_, "pl_entries"));
        if (!count || !entries)
          throw std::runtime_error("the object has no entry table");
        for (uint32_t i = 0; i < *count; ++i)
          module->entries_[entries[i].name] = &entries[i];
      }
    } catch (const std::exception &e) {
      error = e.what();
      module.reset();
    }
  }
  if (!module) {
    diag.error({}, "native build of '" + name + "' failed: " + error);
    metrics.failures.add();
    return nullptr;
  }
  metrics.builds.add();
  metrics.seconds.observe(std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - start)
                              .count());
  return module;
}

Module::~Module() { dlclose(handle_); }

const abi::pl_entry *Module::lookup(const std::string &name) const {
  auto it = entries_.find(name);
  return it == entries_.end() ? nullptr : it->second;
}

} // namespace paralift::native
