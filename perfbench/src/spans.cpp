#include "spans.h"

#include <atomic>
#include <cstdio>
#include <mutex>
#include <thread>
#include <vector>

#include "common/trace.h"

namespace perfbench {

namespace {

struct Span {
  std::string name;
  double start = 0.0;
  double end = -1.0;
  int parent = -1;
  int op = -1;
  int thread = 0;
};

std::atomic<bool> g_enabled{false};
std::mutex g_mu;
std::vector<Span> g_spans;  // guarded by g_mu
int g_op = -1;              // guarded by g_mu
// Innermost open span of the thread that set the operation; the parent of
// spans opened on threads with nothing open.
int g_ambient = -1;  // guarded by g_mu
std::thread::id g_main;  // guarded by g_mu

std::atomic<int> g_threads{0};

thread_local std::vector<int> t_stack;
// Small per-process index of the thread that opened a span, in the order
// threads first opened one.
thread_local const int t_index = g_threads.fetch_add(1);

}  // namespace

void Spans::Enable() { g_enabled.store(true, std::memory_order_relaxed); }

bool Spans::Enabled() { return g_enabled.load(std::memory_order_relaxed); }

void Spans::SetOperation(int op) {
  const std::lock_guard<std::mutex> lock(g_mu);
  g_op = op;
  g_main = std::this_thread::get_id();
  g_ambient = t_stack.empty() ? -1 : t_stack.back();
}

int Spans::Open(std::string_view name) {
  if (!Enabled()) return -1;
  const double start = bb::trace::MonotonicSeconds();
  const std::lock_guard<std::mutex> lock(g_mu);
  const int id = static_cast<int>(g_spans.size());
  const int parent = !t_stack.empty() ? t_stack.back() : g_ambient;
  g_spans.push_back({std::string(name), start, -1.0, parent, g_op, t_index});
  t_stack.push_back(id);
  if (std::this_thread::get_id() == g_main) g_ambient = id;
  return id;
}

void Spans::Close(int id) {
  if (id < 0) return;
  const double end = bb::trace::MonotonicSeconds();
  const std::lock_guard<std::mutex> lock(g_mu);
  g_spans[static_cast<std::size_t>(id)].end = end;
  if (!t_stack.empty() && t_stack.back() == id) t_stack.pop_back();
  if (std::this_thread::get_id() == g_main) {
    g_ambient = t_stack.empty() ? -1 : t_stack.back();
  }
}

bool Spans::Write(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::lock_guard<std::mutex> lock(g_mu);
  for (std::size_t i = 0; i < g_spans.size(); ++i) {
    const Span& s = g_spans[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"start\":%.9f,\"end\":%.9f,"
                 "\"parent\":%d,\"op\":%d,\"thread\":%d}\n",
                 i, s.name.c_str(), s.start, s.end, s.parent, s.op, s.thread);
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
