// In-memory span recorder for the benchmark's traced runs.
//
// A span is one timed call into a layer: name, start, end (in
// trace::MonotonicSeconds, i.e. CLOCK_MONOTONIC, the clock Python's
// time.monotonic() reads, so spans from this process line up with the ones
// run.py records around child processes), the span that was open when it
// started, the operation it belongs to and the thread that opened it.
// Spans are kept in memory and written once, as JSON lines, by Write().
//
// Parent rule: the innermost span open on the same thread; on a thread with
// nothing open (a thread-pool worker), the innermost span open on the
// thread that started the operation. The parent places a span in its
// operation's tree; self time, computed by run.py, is per thread: a span's
// duration minus the union of its children opened on the same thread, so
// work other threads do at the same time is not subtracted.
//
// Recording is off until Enable(); a disabled Scope costs one branch.
#pragma once

#include <string>
#include <string_view>

namespace perfbench {

class Spans {
 public:
  static void Enable();
  static bool Enabled();
  // Every span opened after this call carries `op` as its operation id.
  static void SetOperation(int op);
  // Opens a span and returns its id (-1 when disabled).
  static int Open(std::string_view name);
  static void Close(int id);
  // Writes every recorded span; false on I/O failure.
  static bool Write(const std::string& path);
};

class Scope {
 public:
  explicit Scope(std::string_view name) : id_(Spans::Open(name)) {}
  ~Scope() { Spans::Close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  int id_;
};

}  // namespace perfbench
