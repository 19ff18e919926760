//===- tools/augur_serve.cpp - Always-on inference daemon -----*- C++ -*-===//
//
// The serving daemon (DESIGN.md section 13): listens on a Unix or TCP
// socket, compiles each distinct model/schedule/data configuration
// once, and serves every subsequent sampling request from the artifact
// cache with zero compiler phases. Drive it with tools/augur_bench or
// any client speaking the serve/Protocol.h framing.
//
//   $ augur_serve --unix /tmp/augur.sock
//   $ augur_serve --port 7771 --workers 4 --cache 16 --queue 32
//   $ augur_serve --port 7771 --metrics-port 9464 --access-log log.jsonl
//
// --metrics-port exposes the observability plane (DESIGN.md section
// 14): HTTP GET /metrics answers Prometheus text exposition with
// request latency quantiles, queue depth, cache hit rate, and
// per-variable convergence gauges for every served model.
//
// The daemon runs until a client sends the shutdown op or the process
// receives SIGINT/SIGTERM. Shutdown is flushing: the access log is
// fsynced and, when telemetry is enabled, a final metrics.json /
// trace.json snapshot is written (fsync + atomic rename) into
// --telemetry-dir before the process exits, so a scrape-less
// deployment still gets its terminal state on SIGTERM.
//
//===----------------------------------------------------------------------===//

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "serve/Server.h"
#include "telemetry/Telemetry.h"

using namespace augur;
using namespace augur::serve;

namespace {

Server *ActiveServer = nullptr;

void onSignal(int) {
  if (ActiveServer)
    ActiveServer->requestStop();
}

int usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s [--unix PATH | --host H --port P] [--workers N]\n"
               "          [--queue N] [--cache N]\n"
               "          [--metrics-port P] [--metrics-host H]\n"
               "          [--access-log PATH] [--telemetry-dir DIR]\n"
               "          [--no-diag]\n"
               "          [--isolation off|native|all] [--max-workers N]\n"
               "          [--retry-max N] [--retry-backoff MS] [--no-hedge]\n"
               "          [--breaker-threshold N] [--breaker-cooldown MS]\n"
               "          [--worker-rss-limit BYTES] [--worker-cpu-limit S]\n"
               "          [--kill-grace MS]\n",
               Argv0);
  return 2;
}

} // namespace

int main(int argc, char **argv) {
  ServerOptions Opts;
  Opts.Port = 7771;
  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    if (A == "--unix" && I + 1 < argc)
      Opts.UnixPath = argv[++I];
    else if (A == "--host" && I + 1 < argc)
      Opts.Host = argv[++I];
    else if (A == "--port" && I + 1 < argc)
      Opts.Port = std::atoi(argv[++I]);
    else if (A == "--workers" && I + 1 < argc)
      Opts.Workers = std::atoi(argv[++I]);
    else if (A == "--queue" && I + 1 < argc)
      Opts.QueueLimit = size_t(std::atoll(argv[++I]));
    else if (A == "--cache" && I + 1 < argc)
      Opts.CacheCapacity = size_t(std::atoll(argv[++I]));
    else if (A == "--metrics-port" && I + 1 < argc)
      Opts.MetricsPort = std::atoi(argv[++I]);
    else if (A == "--metrics-host" && I + 1 < argc)
      Opts.MetricsHost = argv[++I];
    else if (A == "--access-log" && I + 1 < argc)
      Opts.AccessLogPath = argv[++I];
    else if (A == "--telemetry-dir" && I + 1 < argc)
      Opts.TelemetryDir = argv[++I];
    else if (A == "--no-diag")
      Opts.Diag = false;
    else if (A == "--isolation" && I + 1 < argc) {
      std::string V = argv[++I];
      if (V == "off")
        Opts.Isolation = ServerOptions::IsolationMode::Off;
      else if (V == "native")
        Opts.Isolation = ServerOptions::IsolationMode::Native;
      else if (V == "all")
        Opts.Isolation = ServerOptions::IsolationMode::All;
      else
        return usage(argv[0]);
    } else if (A == "--max-workers" && I + 1 < argc)
      Opts.MaxSandboxWorkers = std::atoi(argv[++I]);
    else if (A == "--retry-max" && I + 1 < argc)
      Opts.RetryMax = std::atoi(argv[++I]);
    else if (A == "--retry-backoff" && I + 1 < argc)
      Opts.RetryBackoffMillis = std::atoll(argv[++I]);
    else if (A == "--no-hedge")
      Opts.HedgeInterp = false;
    else if (A == "--breaker-threshold" && I + 1 < argc)
      Opts.BreakerThreshold = std::atoi(argv[++I]);
    else if (A == "--breaker-cooldown" && I + 1 < argc)
      Opts.BreakerCooldownMillis = std::atoll(argv[++I]);
    else if (A == "--worker-rss-limit" && I + 1 < argc)
      Opts.WorkerRssLimitBytes = uint64_t(std::atoll(argv[++I]));
    else if (A == "--worker-cpu-limit" && I + 1 < argc)
      Opts.WorkerCpuLimitSecs = std::atoll(argv[++I]);
    else if (A == "--kill-grace" && I + 1 < argc)
      Opts.WorkerKillGraceMillis = std::atoll(argv[++I]);
    else
      return usage(argv[0]);
  }

  Server S(Opts);
  Status St = S.start();
  if (!St.ok()) {
    std::fprintf(stderr, "augur_serve: %s\n", St.message().c_str());
    return 1;
  }
  if (!Opts.UnixPath.empty())
    std::printf("augur_serve: listening on %s (%d workers, cache %zu)\n",
                Opts.UnixPath.c_str(), Opts.Workers, Opts.CacheCapacity);
  else
    std::printf("augur_serve: listening on %s:%d (%d workers, cache %zu)\n",
                Opts.Host.c_str(), S.port(), Opts.Workers,
                Opts.CacheCapacity);
  std::printf("augur_serve: isolation %s\n",
              Opts.Isolation == ServerOptions::IsolationMode::Off ? "off"
              : Opts.Isolation == ServerOptions::IsolationMode::Native
                  ? "native"
                  : "all");
  if (S.metricsPort() > 0)
    std::printf("augur_serve: metrics on http://%s:%d/metrics\n",
                Opts.MetricsHost.c_str(), S.metricsPort());
  if (!Opts.AccessLogPath.empty())
    std::printf("augur_serve: access log at %s\n",
                Opts.AccessLogPath.c_str());
  std::fflush(stdout);

  ActiveServer = &S;
  std::signal(SIGINT, onSignal);
  std::signal(SIGTERM, onSignal);

  S.wait();
  S.stop(); // also fsyncs + closes the access log

  // Final telemetry snapshot: when the recorder is live (AUGUR_TELEMETRY
  // or a compiled request enabled it), persist metrics.json/trace.json
  // via fsync + atomic rename so a SIGTERM'd deployment keeps its last
  // complete state even if nothing ever scraped /metrics.
  Recorder &Rec = Recorder::global();
  if (Rec.enabled()) {
    Status FlushSt = Rec.flushFiles();
    if (!FlushSt.ok())
      std::fprintf(stderr, "augur_serve: telemetry flush failed: %s\n",
                   FlushSt.message().c_str());
    else
      std::printf("augur_serve: telemetry flushed to %s\n",
                  Opts.TelemetryDir.c_str());
  }
  ActiveServer = nullptr;

  ArtifactCacheStats CS = S.cacheStats();
  std::printf("augur_serve: shut down (cache: %llu hits, %llu misses, "
              "%llu evictions, %llu coalesced, %llu failures)\n",
              (unsigned long long)CS.Hits, (unsigned long long)CS.Misses,
              (unsigned long long)CS.Evictions,
              (unsigned long long)CS.Coalesced,
              (unsigned long long)CS.Failures);
  return 0;
}
