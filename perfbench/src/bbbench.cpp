// bbbench - the benchmark's in-process half (run.py is the other half).
//
//   bbbench call --participant P --scene-seed S --script A,B,... --duration D
//                --out BASE [--reconstruct]
//       Generates one seeded input (set-up): a scripted call in which the
//       caller performs each action in turn, written as BASE.bbv plus its
//       ground truth (see "inputs" below). With --reconstruct it writes the
//       call's reconstruction instead of the stream, which makes BASE a
//       locate_dictionary query input.
//
//   bbbench ref --base BASE
//       Reference output for BASE.bbv: a 1-thread Reconstructor::Run on the
//       loaded stream with a derived VB and ClassicalSegmenter (what
//       `backbuster attack` does), written as BASE.recon.png and
//       BASE.recon.coverage.png, plus its verified RBRR.
//
//   bbbench attack --in CALL.bbv --out BASE [--stream]
//                  --spans FILE --op K
//       The traced run of one call attack: the same library calls as
//       `backbuster attack` (batch or --stream), at the default thread
//       count, with ClassicalSegmenter behind a timing decorator and, on
//       the stream path, BbvFileSource behind one. Spans go to FILE.
//
//   bbbench locate --inputs BASE,BASE,... --seed N --ops K [--spans FILE]
//       The locate_dictionary operations: builds the 200-background
//       dictionary, then runs K >= #inputs closed-loop queries, cycling
//       over the inputs (RankLocations + TrackObject over each query's
//       trials), and prints each query's wall time and result digest, plus
//       the top-1 rate and tracking accuracy of the inputs.
//
//   bbbench locate --inputs BASE,BASE,... --seed N --exhaustive I,J,...
//       The references: the result digests of queries I, J, ... searched
//       with prune=false.
//
// Every command prints one JSON object as its last stdout line.
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "cli/args.h"
#include "common/parallel.h"
#include "common/trace.h"
#include "core/attacks/location.h"
#include "core/attacks/object_tracking.h"
#include "core/metrics.h"
#include "core/reconstruction.h"
#include "core/streaming.h"
#include "core/wire.h"
#include "datasets/datasets.h"
#include "detect/template_match.h"
#include "imaging/io.h"
#include "segmentation/segmenter.h"
#include "spans.h"
#include "synth/camera.h"
#include "synth/recorder.h"
#include "synth/rng.h"
#include "synth/scene.h"
#include "vbg/compositor.h"
#include "vbg/virtual_source.h"
#include "video/container.h"
#include "video/serialize.h"

using namespace bb;
using perfbench::Scope;
using perfbench::Spans;

namespace {

constexpr int kDictionarySize = 200;  // the paper's dictionary size

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "bbbench: %s\n", message.c_str());
  std::exit(1);
}

// A required option; its absence is a usage error (exit 2).
std::string Need(const cli::Args& args, const std::string& key) {
  const std::optional<std::string> value = args.Get(key);
  if (!value) {
    std::fprintf(stderr, "bbbench %s: missing --%s\n", args.command().c_str(),
                 key.c_str());
    std::exit(2);
  }
  return *value;
}

long ToInt(const std::string& text) {
  try {
    std::size_t used = 0;
    const long value = std::stol(text, &used);
    if (used == text.size()) return value;
  } catch (const std::exception&) {
  }
  Die("expected an integer, got '" + text + "'");
}

long NeedInt(const cli::Args& args, const std::string& key) {
  return ToInt(Need(args, key));
}

std::vector<std::string> SplitCsv(const std::string& csv) {
  std::vector<std::string> out;
  std::stringstream ss(csv);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

double CpuSeconds() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

long MaxRssKb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;
}

// trace::Capture as JSON members: "counters":{...},"stages":{name:[calls,s]}
std::string CaptureJson() {
  const trace::Snapshot snap = trace::Capture();
  std::string out = "\"counters\":{";
  for (std::size_t i = 0; i < snap.counters.size(); ++i) {
    if (i > 0) out += ",";
    out += "\"" + snap.counters[i].name +
           "\":" + std::to_string(snap.counters[i].value);
  }
  out += "},\"stages\":{";
  for (std::size_t i = 0; i < snap.stages.size(); ++i) {
    char buf[96];
    std::snprintf(buf, sizeof buf, "[%llu,%.9f]",
                  static_cast<unsigned long long>(snap.stages[i].calls),
                  snap.stages[i].total_seconds);
    if (i > 0) out += ",";
    out += "\"" + snap.stages[i].name + "\":" + buf;
  }
  return out + "}";
}

void WriteOutputs(const core::ReconstructionResult& rec,
                  const std::string& base) {
  if (!imaging::WriteImageAuto(rec.background, base) ||
      !imaging::WriteImageAuto(imaging::MaskToImage(rec.coverage),
                               base + ".coverage")) {
    Die("cannot write outputs under " + base);
  }
}

// ---- decorators -------------------------------------------------------------

// Delegates to a segmenter and records a span per protocol call.
class TimedSegmenter final : public segmentation::PersonSegmenter {
 public:
  explicit TimedSegmenter(segmentation::PersonSegmenter& inner)
      : inner_(inner) {}

  int AnalysisPasses() const override { return inner_.AnalysisPasses(); }
  void BeginAnalysisPass(int pass, const video::StreamInfo& info) override {
    const Scope s("segmentation.begin_pass");
    inner_.BeginAnalysisPass(pass, info);
  }
  void PushAnalysisFrame(int pass, const imaging::Image& frame,
                         int frame_index) override {
    const Scope s("segmentation.push");
    inner_.PushAnalysisFrame(pass, frame, frame_index);
  }
  void EndAnalysisPass(int pass) override {
    const Scope s("segmentation.end_pass");
    inner_.EndAnalysisPass(pass);
  }
  imaging::Bitmap Segment(const imaging::Image& frame,
                          int frame_index) override {
    const Scope s("segmentation.segment");
    return inner_.Segment(frame, frame_index);
  }

 private:
  segmentation::PersonSegmenter& inner_;
};

// Delegates to a frame source and records a span per Pull.
class TimedSource final : public video::FrameSource {
 public:
  explicit TimedSource(video::FrameSource& inner) : inner_(inner) {}

  video::StreamInfo info() const override { return inner_.info(); }
  bool CanSeek() const override { return inner_.CanSeek(); }

 protected:
  video::FramePull DoPull(imaging::Image& frame) override {
    const Scope s("video.pull");
    return inner_.Pull(frame);
  }
  void DoReset() override { inner_.Reset(); }
  Status DoSeek(int frame) override { return inner_.Seek(frame); }

 private:
  video::FrameSource& inner_;
};

// ---- inputs -------------------------------------------------------------------
//
// A call input BASE is BASE.bbv (what `backbuster attack` reads) plus the
// ground truth the evaluation reads: BASE.truth.png (the true background)
// and the scene's object templates as BASE.obj<k>.png, indexed by
// BASE.objects (one "x y w h" line each). With a reconstruction next to it
// (BASE.recon.png + BASE.recon.coverage.png) BASE is an evaluation base,
// the input of `bbbench locate`.

std::optional<synth::ActionKind> ActionByName(const std::string& name) {
  for (synth::ActionKind a : synth::kAllActions) {
    if (name == ToString(a)) return a;
  }
  return std::nullopt;
}

// A scripted call like the E2 "active" calls: the caller performs each
// action of --script in turn, for equal shares of --duration seconds, in
// the room of --scene-seed, composited over the beach VB with the Zoom
// profile (the `backbuster simulate` defaults).
struct Call {
  synth::RawRecording raw;
  vbg::CompositedCall composited;
};

Call MakeCall(const cli::Args& args) {
  const datasets::SimScale scale;
  const auto seed = static_cast<std::uint64_t>(NeedInt(args, "scene-seed"));
  synth::ScriptedRecordingSpec spec;
  synth::Rng rng(seed);
  synth::RandomSceneOptions scene;
  scene.width = scale.width;
  scene.height = scale.height;
  spec.scene = synth::RandomScene(rng, scene);
  spec.caller = datasets::Participant(static_cast<int>(NeedInt(args, "participant")));
  spec.camera = synth::WebcamCamera(synth::Lighting::kOn);
  spec.fps = scale.fps;
  spec.seed = seed ^ 0xE2ull;
  const std::vector<std::string> script = SplitCsv(Need(args, "script"));
  const double segment = static_cast<double>(NeedInt(args, "duration")) /
                         static_cast<double>(std::max<std::size_t>(1, script.size()));
  for (const std::string& name : script) {
    const auto kind = ActionByName(name);
    if (!kind) Die("unknown action " + name);
    synth::ActionParams action;
    action.kind = *kind;
    action.speed = synth::SpeedMultiplier(synth::SpeedClass::kAverage);
    spec.script.push_back({action, segment});
  }
  Call call{synth::RecordScriptedCall(spec), {}};
  const vbg::StaticImageSource vb(vbg::MakeStockImage(
      vbg::StockImage::kBeach, scale.width, scale.height));
  call.composited = vbg::ApplyVirtualBackground(call.raw, vb);
  return call;
}

void WriteTruth(const synth::RawRecording& raw, const std::string& base) {
  if (!imaging::WriteImageAuto(raw.true_background, base + ".truth")) {
    Die("cannot write " + base + ".truth");
  }
  std::ofstream index(base + ".objects");
  for (std::size_t k = 0; k < raw.scene.objects.size(); ++k) {
    const auto& obj = raw.scene.objects[k];
    if (!imaging::WriteImageAuto(obj.template_image,
                                 base + ".obj" + std::to_string(k))) {
      Die("cannot write object template under " + base);
    }
    index << obj.rect.x << ' ' << obj.rect.y << ' ' << obj.rect.w << ' '
          << obj.rect.h << '\n';
  }
  if (!index.flush()) Die("cannot write " + base + ".objects");
}

core::ReconstructionResult ReferenceRun(const video::VideoStream& call) {
  common::SetThreadCount(1);
  const core::VbReference ref = core::VbReference::DeriveImage(call);
  segmentation::ClassicalSegmenter segmenter;
  core::Reconstructor reconstructor(ref, segmenter);
  return reconstructor.Run(call);
}

// ---- call / ref -------------------------------------------------------------

int GenerateCall(const cli::Args& args) {
  common::SetThreadCount(1);
  const Call call = MakeCall(args);
  const std::string base = Need(args, "out");
  WriteTruth(call.raw, base);
  if (args.Has("reconstruct")) {
    // A locate_dictionary input: the reconstruction is the input, the
    // stream is not needed.
    const core::ReconstructionResult rec = ReferenceRun(call.composited.video);
    WriteOutputs(rec, base + ".recon");
    std::printf("{\"frames\":%d,\"rbrr_verified\":%.9f}\n",
                call.composited.video.frame_count(),
                core::Rbrr(rec, call.raw.true_background).verified);
    return 0;
  }
  if (const Status wrote = video::WriteBbv2(call.composited.video, base + ".bbv");
      !wrote.ok()) {
    Die(wrote.ToString());
  }
  std::printf("{\"frames\":%d}\n", call.composited.video.frame_count());
  return 0;
}

int Ref(const cli::Args& args) {
  const std::string base = Need(args, "base");
  const auto call = video::LoadBbv(base + ".bbv");
  if (!call.ok()) Die(call.status().ToString());
  const auto truth = imaging::ReadImageAuto(base + ".truth.png");
  if (!truth) Die("cannot read " + base + ".truth.png");
  const core::ReconstructionResult rec = ReferenceRun(*call);
  WriteOutputs(rec, base + ".recon");
  std::printf("{\"frames\":%d,\"rbrr_verified\":%.9f}\n", call->frame_count(),
              core::Rbrr(rec, *truth).verified);
  return 0;
}

// ---- attack (traced) ----------------------------------------------------------

int Attack(const cli::Args& args) {
  Spans::Enable();
  trace::Enable();
  Spans::SetOperation(static_cast<int>(NeedInt(args, "op")));
  const std::string in = Need(args, "in");
  segmentation::ClassicalSegmenter classical;
  TimedSegmenter segmenter(classical);
  int frames = 0;
  std::optional<core::ReconstructionResult> rec;
  const int op = Spans::Open("op");
  if (args.Has("stream")) {
    // `backbuster attack --stream`: the call is pulled once per pass.
    auto file = video::BbvFileSource::Open(in);
    if (!file.ok()) Die(file.status().ToString());
    TimedSource source(*file);
    frames = source.info().frame_count;
    std::optional<core::VbReference> ref;
    {
      const Scope s("vb.derive");
      ref = core::VbReference::DeriveImageStreaming(source);
    }
    const Scope s("core.run");
    core::StreamingReconstructor reconstructor(*ref, segmenter);
    auto run = reconstructor.Run(source);
    if (!run.ok()) Die(run.status().ToString());
    rec = std::move(*run);
  } else {
    // `backbuster attack`: the call is loaded whole.
    std::optional<video::VideoStream> call;
    {
      const Scope s("video.load");
      auto loaded = video::LoadBbv(in);
      if (!loaded.ok()) Die(loaded.status().ToString());
      call = std::move(*loaded);
    }
    frames = call->frame_count();
    std::optional<core::VbReference> ref;
    {
      const Scope s("vb.derive");
      ref = core::VbReference::DeriveImage(*call);
    }
    const Scope s("core.run");
    core::Reconstructor reconstructor(*ref, segmenter);
    rec = reconstructor.Run(*call);
  }
  {
    const Scope s("imaging.write");
    WriteOutputs(*rec, Need(args, "out"));
  }
  Spans::Close(op);
  if (!Spans::Write(Need(args, "spans"))) Die("cannot write spans");
  std::printf("{\"frames\":%d,%s}\n", frames, CaptureJson().c_str());
  return 0;
}

// ---- locate ------------------------------------------------------------------

struct Query {
  core::ReconstructionResult rec;
  imaging::Image truth;
  std::vector<imaging::Image> templates;
  std::vector<imaging::Rect> rects;
};

// One template searched for in a query's reconstruction.
struct Trial {
  int owner = 0;   // query whose scene the template comes from
  int object = 0;  // index into the owner's templates
  bool truly_present = false;
};

// The paper's tracking constraints scaled to 144p, as the Fig. 13 bench
// sets them.
detect::TemplateMatchOptions TrackOptions(bool prune) {
  detect::TemplateMatchOptions opts;
  opts.min_window_fraction = 0.01;
  opts.present_threshold = 0.66;
  opts.hue_tolerance = 16.0f;
  opts.value_tolerance = 0.14f;
  opts.min_recovered_fraction = 0.35;
  opts.prune = prune;
  return opts;
}

imaging::Bitmap ToBitmap(const imaging::Image& img) {
  imaging::Bitmap out(img.width(), img.height());
  const auto src = img.pixels();
  const auto dst = out.pixels();
  for (std::size_t i = 0; i < src.size(); ++i) dst[i] = src[i].r > 127;
  return out;
}

Query LoadQuery(const std::string& base) {
  Query q;
  const auto recon = imaging::ReadImageAuto(base + ".recon.png");
  const auto cov = imaging::ReadImageAuto(base + ".recon.coverage.png");
  const auto truth = imaging::ReadImageAuto(base + ".truth.png");
  if (!recon || !cov || !truth) Die("cannot read locate input " + base);
  q.rec.background = *recon;
  q.rec.coverage = ToBitmap(*cov);
  q.truth = *truth;
  std::ifstream index(base + ".objects");
  imaging::Rect r;
  while (index >> r.x >> r.y >> r.w >> r.h) {
    const auto templ = imaging::ReadImageAuto(
        base + ".obj" + std::to_string(q.rects.size()) + ".png");
    if (!templ) Die("cannot read object template under " + base);
    q.rects.push_back(r);
    q.templates.push_back(*templ);
  }
  return q;
}

// Positives: each scene's own objects that leaked enough to be assessable;
// negatives: as many templates from the next scene (the Fig. 13 protocol).
std::vector<Trial> MakeTrials(const std::vector<Query>& queries, int q) {
  const detect::TemplateMatchOptions opts = TrackOptions(true);
  const Query& own = queries[static_cast<std::size_t>(q)];
  const detect::IntegralMask cov(own.rec.coverage);
  std::vector<Trial> trials;
  for (std::size_t k = 0; k < own.rects.size(); ++k) {
    const double recovered =
        static_cast<double>(cov.Sum(own.rects[k])) /
        static_cast<double>(std::max<long long>(1, own.rects[k].Area()));
    if (recovered >= opts.min_recovered_fraction) {
      trials.push_back({q, static_cast<int>(k), true});
    }
  }
  const int other = (q + 1) % static_cast<int>(queries.size());
  const auto& templ = queries[static_cast<std::size_t>(other)].templates;
  const std::size_t positives = std::max<std::size_t>(trials.size(), 1);
  for (std::size_t k = 0; k < positives && !templ.empty(); ++k) {
    trials.push_back({other, static_cast<int>(k % templ.size()), false});
  }
  return trials;
}

struct QueryResult {
  std::vector<core::RankedCandidate> ranking;
  std::vector<core::ObjectTrackingResult> tracks;
};

// FNV-1a-64 of the result's exact values: two results with the same digest
// ranked every candidate identically with bit-identical scores and found
// the same windows.
std::string Digest(const QueryResult& r) {
  std::string bytes;
  char buf[96];
  for (const auto& c : r.ranking) {
    std::snprintf(buf, sizeof buf, "%d %a;", c.index, c.score);
    bytes += buf;
  }
  for (const auto& t : r.tracks) {
    std::snprintf(buf, sizeof buf, "%d %a %d %d %d %d;", t.present ? 1 : 0,
                  t.score, t.window.x, t.window.y, t.window.w, t.window.h);
    bytes += buf;
  }
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(core::wire::Fnv1a64(bytes)));
  return buf;
}

QueryResult RunQuery(const std::vector<Query>& queries,
                     const std::vector<imaging::Image>& dict,
                     const std::vector<Trial>& trials, int q, bool prune) {
  const Query& query = queries[static_cast<std::size_t>(q)];
  QueryResult out;
  core::LocationMatchOptions lopts;
  lopts.prune = prune;
  {
    const Scope s("attacks.rank");
    out.ranking = core::RankLocations(query.rec.background,
                                      query.rec.coverage, dict, lopts);
  }
  const Scope s("attacks.track");
  const detect::TemplateMatchOptions topts = TrackOptions(prune);
  for (const Trial& t : trials) {
    const auto& templ = queries[static_cast<std::size_t>(t.owner)]
                            .templates[static_cast<std::size_t>(t.object)];
    out.tracks.push_back(core::TrackObject(query.rec, templ, topts));
  }
  return out;
}

int Locate(const cli::Args& args) {
  const bool traced = args.Has("spans");
  const std::vector<std::string> inputs = SplitCsv(Need(args, "inputs"));
  const int count = static_cast<int>(inputs.size());
  if (count < 2) Die("locate needs >= 2 inputs");

  const double setup_start = trace::MonotonicSeconds();
  std::vector<Query> queries;
  std::vector<imaging::Image> truths;
  for (const std::string& base : inputs) {
    queries.push_back(LoadQuery(base));
    truths.push_back(queries.back().truth);
  }
  // Query i's true background keeps dictionary index i.
  const std::vector<imaging::Image> dict = datasets::BuildBackgroundDictionary(
      std::move(truths), kDictionarySize,
      static_cast<std::uint64_t>(NeedInt(args, "seed")));
  std::vector<std::vector<Trial>> trials;
  for (int q = 0; q < count; ++q) trials.push_back(MakeTrials(queries, q));
  const double setup_s = trace::MonotonicSeconds() - setup_start;

  if (args.Has("exhaustive")) {
    // Reference mode: the prune=false search for the listed queries.
    std::string refs;
    for (const std::string& item : SplitCsv(Need(args, "exhaustive"))) {
      const long index = ToInt(item);
      if (index < 0 || index >= count) Die("no query " + item);
      const int q = static_cast<int>(index);
      refs += (refs.empty() ? "\"" : ",\"") + item + "\":\"" +
              Digest(RunQuery(queries, dict,
                              trials[static_cast<std::size_t>(q)], q,
                              /*prune=*/false)) +
              "\"";
    }
    std::printf("{\"refs\":{%s}}\n", refs.c_str());
    return 0;
  }

  const int ops = static_cast<int>(NeedInt(args, "ops"));
  if (ops < count) Die("locate needs at least one op per input");
  if (traced) {
    Spans::Enable();
    trace::Enable();
  }
  std::string op_json;
  std::vector<int> rank(static_cast<std::size_t>(count), 0);
  const double cpu_start = CpuSeconds();
  for (int op = 0; op < ops; ++op) {
    const int q = op % count;
    Spans::SetOperation(op);
    const double start = trace::MonotonicSeconds();
    const int span = Spans::Open("op");
    const QueryResult got =
        RunQuery(queries, dict, trials[static_cast<std::size_t>(q)], q, true);
    Spans::Close(span);
    const double wall = trace::MonotonicSeconds() - start;
    rank[static_cast<std::size_t>(q)] = core::RankOf(got.ranking, q);
    char buf[240];
    std::snprintf(buf, sizeof buf,
                  "%s{\"query\":%d,\"wall_s\":%.9f,\"digest\":\"%s\","
                  "\"rank\":%d,\"trials\":%zu,\"coverage\":%.6f}",
                  op == 0 ? "" : ",", q, wall, Digest(got).c_str(),
                  rank[static_cast<std::size_t>(q)],
                  trials[static_cast<std::size_t>(q)].size(),
                  queries[static_cast<std::size_t>(q)].rec.CoverageFraction());
    op_json += buf;
  }
  const double cpu_s = CpuSeconds() - cpu_start;
  // Snapshot the timed queries' counters before the accuracy pass below
  // adds its own.
  const std::string capture = traced ? CaptureJson() : "\"counters\":{}";
  if (traced && !Spans::Write(Need(args, "spans"))) Die("cannot write spans");

  // Accuracy of the query set, outside the timed region.
  int top1 = 0;
  std::vector<core::TrackingTrial> all_trials;
  for (int q = 0; q < count; ++q) {
    top1 += rank[static_cast<std::size_t>(q)] == 1;
    for (const Trial& t : trials[static_cast<std::size_t>(q)]) {
      all_trials.push_back(
          {&queries[static_cast<std::size_t>(q)].rec,
           queries[static_cast<std::size_t>(t.owner)]
               .templates[static_cast<std::size_t>(t.object)],
           t.truly_present});
    }
  }
  const core::TrackingAccuracy acc =
      core::EvaluateTracking(all_trials, TrackOptions(true));
  core::LocationMatchOptions lopts;
  const int grid = 2 * lopts.max_shift / std::max(1, lopts.shift_step) + 1;
  std::printf(
      "{\"setup_s\":%.9f,\"cpu_s\":%.9f,\"maxrss_kb\":%ld,"
      "\"dictionary\":%zu,\"trials\":%zu,\"shifts_per_candidate\":%zu,"
      "\"top1_rate\":%.9f,\"track_accuracy\":%.9f,\"ops\":[%s],%s}\n",
      setup_s, cpu_s, MaxRssKb(), dict.size(), all_trials.size(),
      lopts.rotations.size() * static_cast<std::size_t>(grid * grid),
      static_cast<double>(top1) / static_cast<double>(count), acc.Accuracy(),
      op_json.c_str(), capture.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const cli::Args args =
      cli::Args::Parse(argc, argv, {"stream", "reconstruct"});
  for (const auto& err : args.errors()) {
    std::fprintf(stderr, "bbbench: %s\n", err.c_str());
  }
  if (!args.errors().empty()) return 2;
  const std::string& command = args.command();
  if (command == "ref") return Ref(args);
  if (command == "attack") return Attack(args);
  if (command == "call") return GenerateCall(args);
  if (command == "locate") return Locate(args);
  std::fprintf(stderr, "usage: bbbench call|ref|attack|locate [options]\n");
  return 2;
}
