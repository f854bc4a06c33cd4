// mufuzzd — the networked fuzzing daemon. Binds a MufuzzServer over one
// FuzzService and runs until SIGINT/SIGTERM. All scheduling knobs (workers,
// admission bounds, fair-share slots, metrics cadence) are flags; the
// execution-semantics knobs arrive per job over the wire, so the daemon
// itself never perturbs the reproducibility key.

#include <cerrno>
#include <climits>
#include <csignal>
#include <cstdio>
#include <ctime>
#include <cstdlib>
#include <cstring>
#include <string>

#include "server/server.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void OnSignal(int) { g_stop = 1; }

void Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [flags]\n"
      "  --host A              IPv4 listen address (default 127.0.0.1)\n"
      "  --port N              TCP port; 0 = ephemeral (default 7337)\n"
      "  --workers N           service worker threads; 0 = auto (default)\n"
      "  --max-live-jobs N     global admission bound; 0 = unbounded\n"
      "  --max-live-jobs-per-tenant N   per-tenant bound; 0 = unbounded\n"
      "  --step-slots N        cap on step slices running at once; 0 = none\n"
      "  --round-quantum N     executions per step slice (the\n"
      "                        progress, cancel and fair-share granularity)\n"
      "  --metrics-interval-ms N   stderr metrics line cadence; 0 = never\n"
      "Every numeric flag takes a whole number from 0 up to its field's\n"
      "range (--port: 65535); anything else is refused, never wrapped.\n",
      argv0);
}

/// Parses a whole decimal number in [0, max].
bool ParseCount(const char* s, long max, long* out) {
  char* end = nullptr;
  errno = 0;
  long v = std::strtol(s, &end, 10);
  if (end == s || *end != '\0' || errno == ERANGE || v < 0 || v > max) {
    return false;
  }
  *out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  mufuzz::server::ServerOptions options;
  options.port = 7337;
  options.service.metrics_log_interval_ms = 10'000;

  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--help" || flag == "-h") {
      Usage(argv[0]);
      return 0;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "mufuzzd: %s needs a value\n", flag.c_str());
      return 2;
    }
    const char* value = argv[++i];
    if (flag == "--host") {
      options.host = value;
      continue;
    }
    // The admission bounds are size_t fields, every other flag an int one.
    const bool is_bound =
        flag == "--max-live-jobs" || flag == "--max-live-jobs-per-tenant";
    const long max = flag == "--port" ? 65535 : is_bound ? LONG_MAX : INT_MAX;
    long n = 0;
    if (!ParseCount(value, max, &n)) {
      std::fprintf(stderr,
                   "mufuzzd: %s wants an integer in [0, %ld], got \"%s\"\n",
                   flag.c_str(), max, value);
      return 2;
    }
    if (flag == "--port") {
      options.port = static_cast<int>(n);
    } else if (flag == "--workers") {
      options.service.workers = static_cast<int>(n);
    } else if (flag == "--max-live-jobs") {
      options.service.max_live_jobs = static_cast<size_t>(n);
    } else if (flag == "--max-live-jobs-per-tenant") {
      options.service.max_live_jobs_per_tenant = static_cast<size_t>(n);
    } else if (flag == "--step-slots") {
      options.service.step_slots = static_cast<int>(n);
    } else if (flag == "--round-quantum") {
      options.service.round_quantum = static_cast<int>(n);
    } else if (flag == "--metrics-interval-ms") {
      options.service.metrics_log_interval_ms = static_cast<int>(n);
    } else {
      std::fprintf(stderr, "mufuzzd: unknown flag %s\n", flag.c_str());
      Usage(argv[0]);
      return 2;
    }
  }

  mufuzz::server::MufuzzServer server(std::move(options));
  mufuzz::Status st = server.Start();
  if (!st.ok()) {
    std::fprintf(stderr, "mufuzzd: %s\n", st.ToString().c_str());
    return 1;
  }
  // The readiness line the smoke tests (and humans) wait for.
  std::printf("mufuzzd listening on port %d (%d workers)\n", server.port(),
              server.service().workers());
  std::fflush(stdout);

  std::signal(SIGINT, OnSignal);
  std::signal(SIGTERM, OnSignal);
  while (!g_stop) {
    timespec ts{0, 100'000'000};  // 100ms — signal latency bound
    nanosleep(&ts, nullptr);
  }
  std::printf("mufuzzd: shutting down\n");
  std::fflush(stdout);
  server.Stop();
  return 0;
}
