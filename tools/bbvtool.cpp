// bbvtool - .bbv container utility (DESIGN.md section 12).
//
//   bbvtool inspect --in call.bbv
//       Prints container version, stream shape and (for v2) the dedup
//       index statistics without decoding any pixels.
//
//   bbvtool migrate --in old.bbv --out new.bbv [--format v1|v2]
//       Rewrites a stream into the target container version (default v2).
//       Decodes through the normal reader, so a file the reader would
//       reject is refused with the same structured reason.
//
//   bbvtool verify --in call.bbv
//       Decodes every frame and reports the first unreadable one (for v2
//       this checks every referenced blob's content hash). Exit 0 only
//       when the whole stream decodes cleanly.
#include <cstdio>
#include <string>

#include "cli/args.h"
#include "imaging/image.h"
#include "video/container.h"
#include "video/serialize.h"

using namespace bb;

namespace {

int Fail(const std::string& message) {
  std::fprintf(stderr, "error: %s\n", message.c_str());
  return 1;
}

int Usage() {
  std::printf(
      "usage: bbvtool <command> [options]\n"
      "\n"
      "commands:\n"
      "  inspect    print container version and index statistics\n"
      "  migrate    rewrite a stream into another container version\n"
      "  verify     decode every frame and check content integrity\n"
      "\n"
      "options:\n"
      "  --in FILE       input .bbv (all commands)\n"
      "  --out FILE      output .bbv (migrate)\n"
      "  --format V      migrate target: v1 | v2 (default v2)\n");
  return 2;
}

int Inspect(const cli::Args& args) {
  const auto in = args.Get("in");
  if (!in) return Fail("inspect requires --in <file.bbv>");
  if (const int rc = cli::RejectUnknown(args)) return rc;

  auto source = video::BbvFileSource::Open(*in);
  if (!source.ok()) return Fail(source.status().ToString());
  const video::StreamInfo info = source->info();
  std::printf("%s: BBV%d, %d frames, %dx%d @ %.2f fps\n", in->c_str(),
              source->version(), info.frame_count, info.width, info.height,
              info.fps);
  if (source->version() == 2) {
    const auto layout = video::InspectBbv2(*in);
    if (!layout.ok()) return Fail(layout.status().ToString());
    std::printf(
        "  blobs: %d unique of %d frames (dedup ratio %.2fx)\n"
        "  frame payload: %llu bytes each, footer at byte %llu\n",
        layout->blob_count(), info.frame_count, layout->DedupRatio(),
        static_cast<unsigned long long>(layout->frame_bytes()),
        static_cast<unsigned long long>(layout->footer_begin));
  }
  return 0;
}

int Migrate(const cli::Args& args) {
  const auto in = args.Get("in");
  const auto out = args.Get("out");
  if (!in || !out) {
    return Fail("migrate requires --in <file.bbv> and --out <file.bbv>");
  }
  const std::string format = args.Get("format", "v2");
  if (format != "v1" && format != "v2") {
    return Fail("unknown --format " + format + " (want v1 or v2)");
  }
  if (const int rc = cli::RejectUnknown(args)) return rc;

  const auto call = video::LoadBbv(*in);
  if (!call.ok()) return Fail(call.status().ToString());
  if (const Status wrote = format == "v1" ? video::WriteBbv(*call, *out)
                                          : video::WriteBbv2(*call, *out);
      !wrote.ok()) {
    return Fail(wrote.ToString());
  }
  std::printf("wrote %s (%s, %d frames)\n", out->c_str(), format.c_str(),
              call->frame_count());
  return 0;
}

int Verify(const cli::Args& args) {
  const auto in = args.Get("in");
  if (!in) return Fail("verify requires --in <file.bbv>");
  if (const int rc = cli::RejectUnknown(args)) return rc;

  auto source = video::BbvFileSource::Open(*in);
  if (!source.ok()) return Fail(source.status().ToString());
  const video::StreamInfo info = source->info();

  imaging::Image frame;
  int bad = 0;
  for (int i = 0; i < info.frame_count; ++i) {
    const video::FramePull pull = source->Pull(frame);
    if (pull.status == video::PullStatus::kEnd) {
      return Fail("stream ended early at frame " + std::to_string(i) +
                  " of " + std::to_string(info.frame_count));
    }
    if (pull.status == video::PullStatus::kBad) {
      std::fprintf(stderr, "frame %d: %s\n", i,
                   pull.error.ToString().c_str());
      ++bad;
    }
  }
  if (bad > 0) {
    return Fail(std::to_string(bad) + " of " +
                std::to_string(info.frame_count) +
                " frames failed to decode");
  }
  std::printf("%s: OK (BBV%d, %d frames verified)\n", in->c_str(),
              source->version(), info.frame_count);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const cli::Args args = cli::Args::Parse(argc, argv, {"help"});
  if (const int rc = cli::ReportErrors(args)) return rc;
  if (args.GetFlag("help")) {
    Usage();
    return 0;
  }

  if (args.command() == "inspect") return Inspect(args);
  if (args.command() == "migrate") return Migrate(args);
  if (args.command() == "verify") return Verify(args);
  return Usage();
}
