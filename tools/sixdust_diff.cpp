// sixdust-diff: compare two published service archives — the maintenance
// view this paper itself takes on the 2018-vs-2022 hitlist.

#include <cstdio>

#include "cli.hpp"
#include "hitlist/archive.hpp"
#include "hitlist/compare.hpp"
#include "topo/world_builder.hpp"

using namespace sixdust;

namespace {

constexpr const char* kUsage = R"(sixdust-diff — compare two service archives

usage: sixdust-diff BEFORE.bin AFTER.bin [options]
  --fingerprint N    archive fingerprint both files were saved with
                     (sixdust-hitlist prints it; default 0)
  --world-seed N     world seed for AS attribution (default 42)
  --world-scale X    world scale (default 0.1)
  --tail-ases N      procedural long-tail operator ASes (default 200)
  --help
)";

}  // namespace

int main(int argc, char** argv) {
  cli::Args args(argc, argv);
  args.usage_on_help(kUsage);
  if (args.positional().size() != 2) cli::die("expected BEFORE.bin AFTER.bin");

  const auto fp = args.get_u64("fingerprint", 0);
  HitlistService::Config cfg;
  auto before = ServiceArchive::load(cfg, fp, args.positional()[0]);
  if (!before) cli::die("cannot load '" + args.positional()[0] + "'");
  auto after = ServiceArchive::load(cfg, fp, args.positional()[1]);
  if (!after) cli::die("cannot load '" + args.positional()[1] + "'");

  WorldConfig wc;
  wc.seed = args.get_u64("world-seed", 42);
  wc.scale = args.get_double("world-scale", 0.1);
  wc.tail_as_count = static_cast<int>(args.get_u64("tail-ases", 200));
  const auto world = build_world(wc);

  const auto diff = diff_services(*before, *after, world->rib());
  std::fputs(diff.summary(world->registry()).c_str(), stdout);
  return 0;
}
