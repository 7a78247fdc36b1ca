// Crash consistency of serve::ServePipeline, end to end: every crash
// image of an uninterrupted run must resume to that run's sealed
// segments and final state files, byte for byte.
//
// A crash image is a store directory plus a checkpoint directory as a
// killed process could leave them. They are built from copies taken
// during the uninterrupted run, so no production code needs a hook:
//  - at every checkpoint, the sealed store with each rename prefix of the
//    state files (k renamed, the rest still complete `.tmp` files), and
//    with no `.tmp` file at all (killed between the seal and the write);
//  - at every checkpoint, the sealed store with one `.tmp` file cut short
//    (killed while preparing the write);
//  - the store and state files at random span offsets between
//    checkpoints.
// The stream is a sorted HotelReservation capture served with skew
// correction and small segments, with the tail sampler on and off.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "callgraph/inference.h"
#include "serve/pipeline.h"
#include "sim/apps.h"
#include "sim/workload.h"
#include "util/rng.h"

namespace traceweaver {
namespace {

namespace fs = std::filesystem;

/// File name -> bytes of every regular file in a directory.
using Files = std::map<std::string, std::string>;

Files ReadDir(const fs::path& dir) {
  Files files;
  for (const auto& e : fs::directory_iterator(dir)) {
    std::ifstream in(e.path(), std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    files[e.path().filename().string()] = bytes.str();
  }
  return files;
}

void WriteDir(const fs::path& dir, const Files& files) {
  fs::remove_all(dir);
  fs::create_directories(dir);
  for (const auto& [name, bytes] : files) {
    std::ofstream(dir / name, std::ios::binary) << bytes;
  }
}

struct Stream {
  CallGraph graph;
  std::vector<Span> spans;  ///< Completion order, as sort-spans writes it.
};

const Stream& HotelStream() {
  static const Stream stream = [] {
    Stream s;
    const sim::AppSpec app = sim::MakeHotelReservationApp();
    sim::IsolatedReplayOptions iso;
    iso.requests_per_root = 15;
    s.graph = InferCallGraph(sim::RunIsolatedReplay(app, iso).spans);
    sim::OpenLoopOptions load;
    load.requests_per_sec = 60;
    load.duration = Seconds(5);
    load.seed = 7;
    s.spans = sim::RunOpenLoop(app, load).spans;
    std::sort(s.spans.begin(), s.spans.end(),
              [](const Span& a, const Span& b) {
                return a.client_recv != b.client_recv
                           ? a.client_recv < b.client_recv
                           : a.id < b.id;
              });
    return s;
  }();
  return stream;
}

constexpr std::size_t kCheckpointEvery = 200;

serve::ServePipelineOptions Options(const fs::path& root, bool sampler) {
  serve::ServePipelineOptions o;
  o.online.window = Millis(500);
  o.online.margin = Millis(100);
  o.online.skew_correct = true;
  o.online.weaver.num_threads = 1;
  o.online.weaver.compute_quality = true;
  o.store_dir = (root / "store").string();
  o.store.segment_traces = 16;
  o.tail_sample = sampler ? 0.1 : -1.0;
  o.checkpoint_dir = (root / "ckpt").string();
  o.checkpoint_every = kCheckpointEvery;
  return o;
}

/// What a killed run leaves on disk.
struct Image {
  std::string name;
  Files store;
  Files ckpt;
};

/// The state files of one configuration, in write order.
std::vector<std::string> StateFiles(bool sampler) {
  if (sampler) return {"committer.jsonl", "sampler.jsonl", "checkpoint.jsonl"};
  return {"committer.jsonl", "checkpoint.jsonl"};
}

/// The crash images around one checkpoint: `store` is the store right
/// after its seal, `old_ckpt` and `new_ckpt` the state directories before
/// and after it.
void CheckpointImages(const std::string& at, const Files& store,
                      const Files& old_ckpt, const Files& new_ckpt,
                      const std::vector<std::string>& names,
                      std::vector<Image>& out) {
  out.push_back({at + " sealed, nothing written", store, old_ckpt});
  // Commit step: `k` files renamed, the rest complete `.tmp` files.
  for (std::size_t k = 0; k <= names.size(); ++k) {
    Files ckpt = old_ckpt;
    for (std::size_t i = 0; i < names.size(); ++i) {
      const std::string& bytes = new_ckpt.at(names[i]);
      ckpt[i < k ? names[i] : names[i] + ".tmp"] = bytes;
    }
    out.push_back({at + " " + std::to_string(k) + " renamed", store, ckpt});
  }
  // Prepare step: files before `cut` complete, file `cut` short.
  for (std::size_t cut = 0; cut < names.size(); ++cut) {
    Files ckpt = old_ckpt;
    for (std::size_t i = 0; i < cut; ++i) {
      ckpt[names[i] + ".tmp"] = new_ckpt.at(names[i]);
    }
    const std::string& bytes = new_ckpt.at(names[cut]);
    ckpt[names[cut] + ".tmp"] = bytes.substr(0, bytes.size() * 2 / 3);
    out.push_back({at + " " + names[cut] + ".tmp cut", store, ckpt});
  }
}

class ServePipelineCrash : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    root_ = fs::temp_directory_path() /
            ("tw_serve_pipeline_" + std::to_string(::getpid()) + "_" +
             (GetParam() ? "sampled" : "unsampled"));
    fs::remove_all(root_);
  }
  void TearDown() override { fs::remove_all(root_); }

  fs::path root_;
};

TEST_P(ServePipelineCrash, EveryCrashImageResumesToTheUninterruptedRun) {
  const bool sampler = GetParam();
  const Stream& stream = HotelStream();
  const std::vector<std::string> names = StateFiles(sampler);

  // The uninterrupted run, copying both directories at every checkpoint
  // and at random offsets in between.
  std::vector<Image> images;
  Files store_final;
  Files ckpt_final;
  {
    const fs::path run = root_ / "run";
    fs::create_directories(run / "ckpt");
    serve::ServePipeline pipeline(stream.graph, Options(run, sampler));
    ASSERT_TRUE(pipeline.Open(false).has_value());
    Rng rng(29);
    Files old_ckpt;
    for (std::size_t i = 0; i < stream.spans.size(); ++i) {
      ASSERT_TRUE(pipeline.Step(stream.spans[i], i + 1));
      const std::string at = "offset " + std::to_string(i + 1);
      if ((i + 1) % kCheckpointEvery == 0) {
        const Files ckpt = ReadDir(run / "ckpt");
        CheckpointImages(at, ReadDir(run / "store"), old_ckpt, ckpt, names,
                         images);
        old_ckpt = ckpt;
      } else if (rng.Uniform(0.0, 1.0) < 0.005) {
        images.push_back({at, ReadDir(run / "store"), ReadDir(run / "ckpt")});
      }
    }
    ASSERT_TRUE(pipeline.Finish(true));
    store_final = ReadDir(run / "store");
    ckpt_final = ReadDir(run / "ckpt");
    CheckpointImages("end of stream", store_final, old_ckpt, ckpt_final,
                     names, images);
    ASSERT_EQ(pipeline.committer()->committed(),
              pipeline.store()->size());
  }
  ASSERT_EQ(ckpt_final.size(), names.size());
  ASSERT_GE(images.size(), 100u);

  std::size_t failed = 0;
  for (const Image& image : images) {
    const fs::path dir = root_ / "resume";
    WriteDir(dir / "store", image.store);
    WriteDir(dir / "ckpt", image.ckpt);
    serve::ServePipeline pipeline(stream.graph, Options(dir, sampler));
    std::string err;
    const auto opened = pipeline.Open(true, &err);
    bool same = opened.has_value();
    if (same) {
      for (std::size_t i = opened->source_offset; i < stream.spans.size();
           ++i) {
        pipeline.Step(stream.spans[i], i + 1);
      }
      pipeline.Finish(true);
      same = ReadDir(dir / "store") == store_final &&
             ReadDir(dir / "ckpt") == ckpt_final;
    }
    if (same) continue;
    if (++failed <= 5) {  // The first few name their image.
      ADD_FAILURE() << image.name << ": "
                    << (opened ? "resumed to a different result"
                               : "resume refused: " + err);
    }
  }
  EXPECT_EQ(failed, 0u) << failed << " of " << images.size()
                        << " crash images resumed to a different result";
  std::printf("%zu spans, %zu crash images, %zu differ\n",
              stream.spans.size(), images.size(), failed);
}

INSTANTIATE_TEST_SUITE_P(TailSampler, ServePipelineCrash,
                         ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "On" : "Off";
                         });

}  // namespace
}  // namespace traceweaver
