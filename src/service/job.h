// Crash-safe batch job records for attackd (DESIGN.md section 16).
//
// A BBJB job record is the unit the attackd spool trades in: everything a
// supervisor needs to run one reconstruction job as N shard worker
// subprocesses - the input stream, the attack configuration threaded down
// to `backbuster attack --shard i/N`, the retry policy - plus the
// job's full lifecycle so far: state, every completed attempt (the backoff
// delay it waited, how it exited, why), and the terminal reason once the
// job is done with. The record travels between spool directories
// (incoming/ -> queued/ -> running/ -> done/ | failed/) and is rewritten
// sealed at every transition, so a kill -9 at any instant loses at most
// one in-flight transition, never the job.
//
// File format "BBJB" version 1 (integers little-endian; doubles as
// IEEE-754 bit patterns; strings as u32 length + raw bytes):
//
//   magic         "BBJB"                          bytes 0-3
//   version       u32 = 1                         bytes 4-7
//   id            u64   spool-unique job id       bytes 8-15
//   state         u32   JobState                  bytes 16-19
//   phi           f64   blending-blur radius      bytes 20-27
//   window        u32   streaming window frames   bytes 28-31
//   shards        u32   worker subprocess count   bytes 32-35
//   threads       u32   per-worker --threads      bytes 36-39
//                       (0 = worker default)
//   max_attempts  u32   retry budget, >= 1        bytes 40-43
//   backoff_ms    u32   base retry delay          bytes 44-47
//   deadline_ms   u32   per-attempt watchdog      bytes 48-51
//                       (0 = no deadline)
//   input         string   .bbv path
//   output        string   output image base
//   vb            string   stock VB name; "" = derive from footage
//   max_bad       string   error budget in CLI spelling ("5", "10%", "")
//   final_reason  string   terminal structured reason; "" while live
//   attempts      u32 count, then per attempt:
//                   delay_ms  u32   backoff waited before the attempt
//                   exit_code u32   two's-complement i32; see JobAttempt
//                   reason    string
//   checksum      u64   FNV-1a 64 over every preceding byte
//
// Loads treat the file as hostile input: the checksum is verified before
// any field is trusted, then every field is plausibility-checked with the
// offending byte range named - the same discipline as BBCK/BBPR. The
// "spool" fault-injection point fires on loads (occurrence-keyed) so the
// daemon's handling of unreadable records is chaos-testable.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace bb::service {

enum class JobState : std::uint32_t {
  kQueued = 0,   // admitted, waiting for a supervisor slot
  kRunning = 1,  // a supervisor owns it; work/<id>/ holds its scratch
  kDone = 2,     // merged output sealed at spec.output
  kFailed = 3,   // refused at admission or retries exhausted; see
                 // final_reason
};

const char* ToString(JobState state);

// What the client submits (attackctl submit flags, one field each).
struct JobSpec {
  std::string input;         // .bbv stream to attack
  std::string output;        // output image base for the merged result
  std::string vb;            // stock VB name; empty = derive from footage
  double phi = 0.0;          // 0 = worker default
  int window = 64;           // streaming window frames
  int shards = 1;            // worker subprocess fan-out
  int threads = 0;           // per-worker --threads; 0 = worker default
  std::string max_bad_frames;  // per-job error budget, CLI spelling; "" =
                               // unlimited, threaded to --max-bad-frames
  int max_attempts = 3;      // total attempt budget, >= 1
  int backoff_ms = 250;      // attempt k (k >= 1) waits backoff_ms << (k-1)
  int deadline_ms = 0;       // watchdog per attempt; 0 = none
};

// One completed (or interrupted) attempt, oldest first. exit_code holds
// the shard worker / reducer outcome that ended the attempt: the exit
// status for normal exits, -SIGNUM when a worker died by signal (the
// watchdog kills with SIGKILL, so a timeout records -9).
struct JobAttempt {
  int delay_ms = 0;
  int exit_code = 0;
  std::string reason;  // empty on success
};

struct JobRecord {
  std::uint64_t id = 0;
  JobState state = JobState::kQueued;
  JobSpec spec;
  std::vector<JobAttempt> attempts;
  std::string final_reason;  // set when state is kFailed (or refused)
};

// The deterministic retry schedule: attempt 0 starts immediately, attempt
// k >= 1 waits spec.backoff_ms << (k-1), capped at 60 s. Recorded in the
// attempt history, so a job record replays its own schedule.
int BackoffDelayMs(const JobSpec& spec, int attempt);

// Field-level plausibility used both at admission and on load: bounded
// string lengths, shards in [1, 256], window >= 1, max_attempts in
// [1, 100], non-empty input/output. Returns kInvalidArgument naming the
// first offending field.
Status ValidateSpec(const JobSpec& spec);

// Serializes `job` to `path` via write-temp-then-rename
// (common::AtomicWriteFile, "write" fault point).
Status SaveJob(const JobRecord& job, const std::string& path);

// Parses and validates `path` as hostile input. kNotFound when the file
// does not exist; kDataLoss / kFailedPrecondition / kInvalidArgument on
// corrupt, version-mismatched, or implausible contents, naming the
// offending byte range. The "spool" fault point fires here.
Result<JobRecord> LoadJob(const std::string& path);

}  // namespace bb::service
