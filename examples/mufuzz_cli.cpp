// mufuzz_cli — command-line client for a running mufuzzd daemon. Exercises
// the whole wire surface and prints greppable `key=value` lines, so shell
// scripts (CI's server smoke test included) can drive a daemon end to end:
//
//   ./mufuzz_cli stats  --port 7337
//   ./mufuzz_cli submit --port 7337 --builtin crowdsale --seed 7
//                       --max-executions 2000 --tenant ci --wait
//   ./mufuzz_cli poll   --port 7337 --ticket 1
//   ./mufuzz_cli cancel --port 7337 --ticket 1
//   ./mufuzz_cli wait   --port 7337 --ticket 1
//
// `submit` fuzzes one of the built-in corpus contracts (crowdsale | game)
// or a MiniSol file passed via --file. Exit status: 0 on success, 1 on any
// daemon-reported or transport error.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "analysis/bug_types.h"
#include "corpus/builtin.h"
#include "server/client.h"

using namespace mufuzz;

namespace {

struct Args {
  std::string command;
  std::string host = "127.0.0.1";
  int port = 7337;
  uint64_t ticket = 0;
  std::string builtin;
  std::string file;
  std::string tenant;
  uint64_t seed = 1;
  int max_executions = 2000;
  int priority = 0;
  uint64_t deadline_ms = 0;
  bool wait = false;
};

int Fail(const Status& status) {
  std::fprintf(stderr, "mufuzz_cli: %s\n", status.ToString().c_str());
  return 1;
}

void PrintProgress(const server::WireProgress& p) {
  const char* state = "unknown";
  switch (p.state) {
    case engine::JobState::kQueued: state = "queued"; break;
    case engine::JobState::kRunning: state = "running"; break;
    case engine::JobState::kCancelling: state = "cancelling"; break;
    case engine::JobState::kDone: state = "done"; break;
    case engine::JobState::kUnknown: break;
  }
  std::printf("progress state=%s executions=%llu coverage=%.4f "
              "bugs=%llu round=%d cancelled=%d deadline_expired=%d\n",
              state, static_cast<unsigned long long>(p.executions),
              p.coverage, static_cast<unsigned long long>(p.bugs_found),
              p.round_index, p.cancelled ? 1 : 0, p.deadline_expired ? 1 : 0);
}

void PrintOutcome(const server::WireOutcome& outcome) {
  if (!outcome.has_result) {
    std::printf("outcome name=%s failed error=\"%s\"\n", outcome.name.c_str(),
                outcome.error.c_str());
    return;
  }
  const fuzzer::CampaignResult& r = outcome.result;
  std::printf("outcome name=%s executions=%llu coverage=%.4f bugs=%zu "
              "bug_classes=%zu cancelled=%d\n",
              outcome.name.c_str(),
              static_cast<unsigned long long>(r.executions),
              r.branch_coverage, r.bugs.size(), r.bug_classes.size(),
              r.cancelled ? 1 : 0);
  for (const analysis::BugReport& bug : r.bugs) {
    std::printf("bug class=%s pc=%u line=%d detail=\"%s\"\n",
                analysis::BugClassCode(bug.bug), bug.pc, bug.line,
                bug.detail.c_str());
  }
}

void PrintStats(const engine::ServiceStats& s) {
  std::printf("stats submitted=%llu admitted=%llu rejected_global=%llu "
              "rejected_tenant=%llu completed=%llu cancelled=%llu "
              "deadline_hits=%llu rounds=%llu live=%zu queued=%zu "
              "executions=%llu execs_per_sec=%.1f sessions=%zu\n",
              static_cast<unsigned long long>(s.submitted),
              static_cast<unsigned long long>(s.admitted),
              static_cast<unsigned long long>(s.rejected_global),
              static_cast<unsigned long long>(s.rejected_tenant),
              static_cast<unsigned long long>(s.completed),
              static_cast<unsigned long long>(s.cancelled),
              static_cast<unsigned long long>(s.deadline_hits),
              static_cast<unsigned long long>(s.rounds), s.live_jobs,
              s.queued_jobs, static_cast<unsigned long long>(s.executions),
              s.executions_per_sec, s.sessions_created);
  for (const engine::TenantStats& t : s.tenants) {
    std::printf("tenant name=%s submitted=%llu admitted=%llu rejected=%llu "
                "completed=%llu cancelled=%llu deadline_hits=%llu "
                "executions=%llu stepped_quanta=%llu live=%zu queued=%zu\n",
                t.tenant.c_str(),
                static_cast<unsigned long long>(t.submitted),
                static_cast<unsigned long long>(t.admitted),
                static_cast<unsigned long long>(t.rejected),
                static_cast<unsigned long long>(t.completed),
                static_cast<unsigned long long>(t.cancelled),
                static_cast<unsigned long long>(t.deadline_hits),
                static_cast<unsigned long long>(t.executions),
                static_cast<unsigned long long>(t.stepped_quanta),
                t.live_jobs, t.queued_jobs);
  }
}

int Usage() {
  std::fprintf(stderr,
               "usage: mufuzz_cli <stats|submit|poll|cancel|wait> [flags]\n"
               "  --host A --port N            daemon address\n"
               "  --ticket T                   poll/cancel/wait target\n"
               "  --builtin crowdsale|game     corpus contract to submit\n"
               "  --file PATH                  MiniSol source to submit\n"
               "  --tenant T --priority P --deadline-ms D\n"
               "  --seed S --max-executions E  campaign knobs\n"
               "  --wait                       block submit until done\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  Args args;
  args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--wait") {
      args.wait = true;
      continue;
    }
    if (i + 1 >= argc) return Usage();
    const char* value = argv[++i];
    if (flag == "--host") args.host = value;
    else if (flag == "--port") args.port = std::atoi(value);
    else if (flag == "--ticket") args.ticket = std::strtoull(value, nullptr, 10);
    else if (flag == "--builtin") args.builtin = value;
    else if (flag == "--file") args.file = value;
    else if (flag == "--tenant") args.tenant = value;
    else if (flag == "--seed") args.seed = std::strtoull(value, nullptr, 10);
    else if (flag == "--max-executions") args.max_executions = std::atoi(value);
    else if (flag == "--priority") args.priority = std::atoi(value);
    else if (flag == "--deadline-ms")
      args.deadline_ms = std::strtoull(value, nullptr, 10);
    else return Usage();
  }

  server::MufuzzClient client;
  Status st = client.Connect(args.host, args.port);
  if (!st.ok()) return Fail(st);

  if (args.command == "stats") {
    auto stats = client.Stats();
    if (!stats.ok()) return Fail(stats.status());
    PrintStats(*stats);
    return 0;
  }
  if (args.command == "poll") {
    auto progress = client.Poll(args.ticket);
    if (!progress.ok()) return Fail(progress.status());
    PrintProgress(*progress);
    return 0;
  }
  if (args.command == "cancel") {
    st = client.Cancel(args.ticket);
    if (!st.ok()) return Fail(st);
    std::printf("cancelled ticket=%llu\n",
                static_cast<unsigned long long>(args.ticket));
    return 0;
  }
  if (args.command == "wait") {
    auto outcome = client.Wait(args.ticket);
    if (!outcome.ok()) return Fail(outcome.status());
    PrintOutcome(*outcome);
    return 0;
  }
  if (args.command == "submit") {
    server::SubmitRequest request;
    if (args.builtin == "crowdsale") {
      request.name = corpus::CrowdsaleExample().name;
      request.source = corpus::CrowdsaleExample().source;
    } else if (args.builtin == "game") {
      request.name = corpus::GameExample().name;
      request.source = corpus::GameExample().source;
    } else if (!args.file.empty()) {
      std::ifstream in(args.file);
      if (!in) {
        std::fprintf(stderr, "mufuzz_cli: cannot read %s\n",
                     args.file.c_str());
        return 1;
      }
      std::ostringstream buffer;
      buffer << in.rdbuf();
      request.name = args.file;
      request.source = buffer.str();
    } else {
      std::fprintf(stderr,
                   "mufuzz_cli: submit needs --builtin crowdsale|game or "
                   "--file PATH\n");
      return 2;
    }
    request.tenant = args.tenant;
    request.priority = args.priority;
    request.deadline_ms = args.deadline_ms;
    request.config.seed = args.seed;
    request.config.max_executions = args.max_executions;
    auto ticket = client.Submit(request);
    if (!ticket.ok()) return Fail(ticket.status());
    std::printf("ticket=%llu\n", static_cast<unsigned long long>(*ticket));
    std::fflush(stdout);
    if (args.wait) {
      auto outcome = client.Wait(*ticket);
      if (!outcome.ok()) return Fail(outcome.status());
      PrintOutcome(*outcome);
    }
    return 0;
  }
  return Usage();
}
