// worker_shim - the --worker-bin attackd execs in the benchmark's traced
// daemon runs.
//
//   PERFBENCH_WORKER=<backbuster> PERFBENCH_SHIM_LOG=<file>
//   PERFBENCH_TRACE_DIR=<dir> worker_shim <backbuster arguments...>
//
// Runs the real worker with the same arguments plus `--trace
// <dir>/<n>.json`, forwards SIGTERM/SIGINT to it, and appends one JSON line
// to the log when it ends: start and end (trace::MonotonicSeconds), exit
// status, rusage, the bytes it read (/proc/<pid>/io rchar, read before the
// child is reaped), its trace path and its arguments. Exits with the
// worker's code, or dies of the worker's signal, so attackd sees the same
// outcome it would without the shim.
#include <fcntl.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "common/trace.h"

namespace {

volatile sig_atomic_t g_child = 0;

void Forward(int signum) {
  if (g_child > 0) ::kill(static_cast<pid_t>(g_child), signum);
}

double Seconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
}

long long ReadChars(pid_t pid) {
  std::ifstream io("/proc/" + std::to_string(pid) + "/io");
  std::string key;
  long long value = 0;
  while (io >> key >> value) {
    if (key == "rchar:") return value;
  }
  return -1;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

const char* Env(const char* name) {
  const char* value = std::getenv(name);
  if (value == nullptr || value[0] == '\0') {
    std::fprintf(stderr, "worker_shim: %s is not set\n", name);
    std::exit(127);
  }
  return value;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string worker = Env("PERFBENCH_WORKER");
  const std::string log_path = Env("PERFBENCH_SHIM_LOG");
  const std::string trace_dir = Env("PERFBENCH_TRACE_DIR");

  const double start = bb::trace::MonotonicSeconds();
  const std::string trace_path = trace_dir + "/" + std::to_string(::getpid()) +
                                 ".json";
  std::vector<std::string> args = {worker};
  for (int i = 1; i < argc; ++i) args.emplace_back(argv[i]);
  args.insert(args.end(), {"--trace", trace_path});
  std::vector<char*> cargv;
  for (std::string& a : args) cargv.push_back(a.data());
  cargv.push_back(nullptr);

  struct sigaction sa = {};
  sa.sa_handler = Forward;
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);

  const pid_t pid = ::fork();
  if (pid < 0) return 127;
  if (pid == 0) {
    ::execv(cargv[0], cargv.data());
    ::_exit(127);
  }
  g_child = pid;

  // Wait without reaping so /proc/<pid>/io is still there, then reap.
  siginfo_t info{};
  while (::waitid(P_PID, static_cast<id_t>(pid), &info, WEXITED | WNOWAIT) < 0 &&
         errno == EINTR) {
  }
  const long long rchar = ReadChars(pid);
  int status = 0;
  rusage ru{};
  while (::wait4(pid, &status, 0, &ru) < 0 && errno == EINTR) {
  }
  const double end = bb::trace::MonotonicSeconds();

  char buf[320];
  std::snprintf(buf, sizeof buf,
                "{\"start\":%.9f,\"end\":%.9f,\"exit\":%d,\"signal\":%d,"
                "\"cpu_s\":%.6f,\"maxrss_kb\":%ld,\"rchar\":%lld,\"trace\":",
                start, end, WIFEXITED(status) ? WEXITSTATUS(status) : -1,
                WIFSIGNALED(status) ? WTERMSIG(status) : 0,
                Seconds(ru.ru_utime) + Seconds(ru.ru_stime), ru.ru_maxrss,
                rchar);
  std::string line = std::string(buf) + Quote(trace_path) + ",\"argv\":[";
  for (int i = 1; i < argc; ++i) {
    if (i > 1) line += ",";
    line += Quote(argv[i]);
  }
  line += "]}\n";
  // One write on an O_APPEND descriptor, so concurrent shims never
  // interleave their lines.
  const int fd = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd >= 0) {
    (void)!::write(fd, line.data(), line.size());
    ::close(fd);
  }

  if (WIFSIGNALED(status)) {
    ::signal(WTERMSIG(status), SIG_DFL);
    ::raise(WTERMSIG(status));
  }
  return WIFEXITED(status) ? WEXITSTATUS(status) : 127;
}
