// sixdust-loadgen: replay a query workload against a live sixdust-serve
// daemon at configurable concurrency; report p50/p95/p99 latency,
// throughput, and protocol-coherence violations (dropped responses or an
// epoch stamp going backwards on a connection).

#include <cstdio>

#include <fstream>

#include "cli.hpp"
#include "serve/loadgen.hpp"

using namespace sixdust;

namespace {

constexpr const char* kUsage = R"(sixdust-loadgen — client load generator for sixdust-serve

usage: sixdust-loadgen [options]
  --connect SPEC     server endpoint: HOST:PORT or unix:/path.sock
                     (default 127.0.0.1:7653)
  --concurrency N    concurrent connections (default 4)
  --requests N       requests per connection (default 1000)
  --seed N           workload seed (default 1)
  --connect-timeout-ms N  keep retrying the first connect this long
                     (default 0 = one attempt)
  --mix L,O,A        op mix percentages for lookup,origin,alias — the
                     remainder of 100 is epoch-info (default 70,15,10)
  --json-out FILE    also write the summary as one JSON object
                     (sixdust-loadgen/1); '-' = stdout
  --help

exit status: 0 = clean run; 1 = dropped or incoherent responses, a bad
--connect/--mix value or an unwritable --json-out; 2 = usage error
(unknown option); 3 = server unreachable.
)";

/// Exit status for a server that never accepted a connection (usage
/// errors exit 2).
constexpr int kExitUnreachable = 3;

}  // namespace

int main(int argc, char** argv) {
  cli::Args args(argc, argv);
  args.usage_on_help(kUsage);

  const std::string spec_str = args.get("connect", "127.0.0.1:7653");
  const auto target = serve::parse_listen_spec(spec_str);
  if (!target) cli::die("bad --connect spec '" + spec_str + "'");

  serve::LoadgenConfig cfg;
  cfg.target = *target;
  cfg.concurrency = static_cast<unsigned>(args.get_u64("concurrency", 4));
  cfg.requests = args.get_u64("requests", 1000);
  cfg.seed = args.get_u64("seed", 1);
  cfg.connect_timeout_ms =
      static_cast<int>(args.get_u64("connect-timeout-ms", 0));
  if (args.has("mix")) {
    unsigned l = 0, o = 0, a = 0;
    if (std::sscanf(args.get("mix").c_str(), "%u,%u,%u", &l, &o, &a) != 3 ||
        l + o + a > 100)
      cli::die("bad --mix (want L,O,A percentages summing to <= 100)");
    cfg.pct_lookup = l;
    cfg.pct_origin = o;
    cfg.pct_alias = a;
  }

  // Fail fast on an unwritable summary path, before generating any load.
  const std::string json_out = args.get("json-out", "");
  if (!json_out.empty() && json_out != "-") {
    std::ofstream probe(json_out);
    if (!probe) cli::die("cannot open '" + json_out + "' for writing");
  }

  serve::LoadgenReport report;
  std::string error;
  if (!serve::run_loadgen(cfg, &report, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return kExitUnreachable;
  }
  std::fputs(report.str().c_str(), stdout);
  if (json_out == "-") {
    std::fputs(report.json().c_str(), stdout);
  } else if (!json_out.empty()) {
    std::ofstream f(json_out);
    f << report.json();
    f.flush();
    if (!f.good()) cli::die("cannot write '" + json_out + "'");
  }
  if (report.dropped > 0 || report.incoherent > 0) {
    std::fprintf(stderr, "error: %llu dropped, %llu incoherent responses\n",
                 static_cast<unsigned long long>(report.dropped),
                 static_cast<unsigned long long>(report.incoherent));
    return 1;
  }
  return 0;
}
