#include "server/protocol.h"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "analysis/bug_types.h"

namespace mufuzz::server {

// ---------------------------------------------------------- Wire primitives --

void WireWriter::F64(double v) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  U64(bits);
}

Status WireReader::Need(size_t n) const {
  if (pos_ + n > data_.size()) {
    return Status::ParseError("wire payload truncated (need " +
                              std::to_string(n) + " bytes at offset " +
                              std::to_string(pos_) + " of " +
                              std::to_string(data_.size()) + ")");
  }
  return Status::OK();
}

Status WireReader::U8(uint8_t* v) {
  MUFUZZ_RETURN_IF_ERROR(Need(1));
  *v = data_[pos_++];
  return Status::OK();
}

Status WireReader::U32(uint32_t* v) {
  MUFUZZ_RETURN_IF_ERROR(Need(4));
  uint32_t out = 0;
  for (int i = 0; i < 4; ++i) out |= uint32_t(data_[pos_ + i]) << (8 * i);
  pos_ += 4;
  *v = out;
  return Status::OK();
}

Status WireReader::U64(uint64_t* v) {
  MUFUZZ_RETURN_IF_ERROR(Need(8));
  uint64_t out = 0;
  for (int i = 0; i < 8; ++i) out |= uint64_t(data_[pos_ + i]) << (8 * i);
  pos_ += 8;
  *v = out;
  return Status::OK();
}

Status WireReader::I32(int32_t* v) {
  uint32_t raw;
  MUFUZZ_RETURN_IF_ERROR(U32(&raw));
  *v = static_cast<int32_t>(raw);
  return Status::OK();
}

Status WireReader::I64(int64_t* v) {
  uint64_t raw;
  MUFUZZ_RETURN_IF_ERROR(U64(&raw));
  *v = static_cast<int64_t>(raw);
  return Status::OK();
}

Status WireReader::F64(double* v) {
  uint64_t bits;
  MUFUZZ_RETURN_IF_ERROR(U64(&bits));
  std::memcpy(v, &bits, sizeof(bits));
  return Status::OK();
}

Status WireReader::Str(std::string* s) {
  uint32_t length;
  MUFUZZ_RETURN_IF_ERROR(U32(&length));
  MUFUZZ_RETURN_IF_ERROR(Need(length));
  s->assign(reinterpret_cast<const char*>(data_.data() + pos_), length);
  pos_ += length;
  return Status::OK();
}

Status WireReader::ExpectDone() const {
  if (pos_ != data_.size()) {
    return Status::ParseError("wire payload has " +
                              std::to_string(data_.size() - pos_) +
                              " trailing bytes");
  }
  return Status::OK();
}

// ------------------------------------------------------------- Bool helper --

namespace {

Status ReadBool(WireReader* reader, bool* v) {
  uint8_t raw;
  MUFUZZ_RETURN_IF_ERROR(reader->U8(&raw));
  if (raw > 1) {
    return Status::ParseError("wire bool must be 0 or 1, got " +
                              std::to_string(raw));
  }
  *v = raw != 0;
  return Status::OK();
}

void WriteConfig(const fuzzer::CampaignConfig& config, WireWriter* w) {
  const fuzzer::StrategyConfig& s = config.strategy;
  w->Str(s.name);
  w->U8(s.dataflow_order);
  w->U8(s.raw_repetition);
  w->U8(s.allow_duplicates);
  w->U8(s.distance_feedback);
  w->U8(s.mask_guided);
  w->U8(s.dynamic_energy);
  w->U8(s.constant_injection);
  w->U64(config.seed);
  w->I32(config.max_executions);
  w->I32(config.initial_seeds);
  w->I32(config.base_energy);
  w->F64(config.call_failure_probability);
  for (int i = 0; i < 4; ++i) w->U64(config.initial_contract_balance.limb(i));
  w->I32(config.coverage_samples);
  w->I32(config.mask_stride_divisor);
  w->I32(config.fanout);
}

Status ReadConfig(WireReader* r, fuzzer::CampaignConfig* config) {
  fuzzer::StrategyConfig& s = config->strategy;
  MUFUZZ_RETURN_IF_ERROR(r->Str(&s.name));
  MUFUZZ_RETURN_IF_ERROR(ReadBool(r, &s.dataflow_order));
  MUFUZZ_RETURN_IF_ERROR(ReadBool(r, &s.raw_repetition));
  MUFUZZ_RETURN_IF_ERROR(ReadBool(r, &s.allow_duplicates));
  MUFUZZ_RETURN_IF_ERROR(ReadBool(r, &s.distance_feedback));
  MUFUZZ_RETURN_IF_ERROR(ReadBool(r, &s.mask_guided));
  MUFUZZ_RETURN_IF_ERROR(ReadBool(r, &s.dynamic_energy));
  MUFUZZ_RETURN_IF_ERROR(ReadBool(r, &s.constant_injection));
  MUFUZZ_RETURN_IF_ERROR(r->U64(&config->seed));
  MUFUZZ_RETURN_IF_ERROR(r->I32(&config->max_executions));
  MUFUZZ_RETURN_IF_ERROR(r->I32(&config->initial_seeds));
  MUFUZZ_RETURN_IF_ERROR(r->I32(&config->base_energy));
  MUFUZZ_RETURN_IF_ERROR(r->F64(&config->call_failure_probability));
  uint64_t limbs[4];
  for (uint64_t& limb : limbs) MUFUZZ_RETURN_IF_ERROR(r->U64(&limb));
  config->initial_contract_balance =
      U256(limbs[0], limbs[1], limbs[2], limbs[3]);
  MUFUZZ_RETURN_IF_ERROR(r->I32(&config->coverage_samples));
  MUFUZZ_RETURN_IF_ERROR(r->I32(&config->mask_stride_divisor));
  MUFUZZ_RETURN_IF_ERROR(r->I32(&config->fanout));
  return Status::OK();
}

}  // namespace

// ------------------------------------------------------------------ Submit --

Bytes EncodeSubmitRequest(const SubmitRequest& request) {
  WireWriter w;
  w.Str(request.tenant);
  w.Str(request.name);
  w.Str(request.source);
  w.I32(request.priority);
  w.U64(request.deadline_ms);
  WriteConfig(request.config, &w);
  return w.Take();
}

Status DecodeSubmitRequest(BytesView payload, SubmitRequest* request) {
  WireReader r(payload);
  MUFUZZ_RETURN_IF_ERROR(r.Str(&request->tenant));
  MUFUZZ_RETURN_IF_ERROR(r.Str(&request->name));
  MUFUZZ_RETURN_IF_ERROR(r.Str(&request->source));
  MUFUZZ_RETURN_IF_ERROR(r.I32(&request->priority));
  MUFUZZ_RETURN_IF_ERROR(r.U64(&request->deadline_ms));
  MUFUZZ_RETURN_IF_ERROR(ReadConfig(&r, &request->config));
  return r.ExpectDone();
}

// ---------------------------------------------------------------- Progress --

Bytes EncodeProgress(const engine::JobProgress& progress) {
  WireWriter w;
  w.U8(static_cast<uint8_t>(progress.state));
  w.U64(progress.executions);
  w.U64(progress.transactions);
  w.F64(progress.coverage);
  w.U64(progress.bugs_found);
  w.I32(progress.round_index);
  w.I32(progress.fanout);
  w.I32(progress.parents_in_flight);
  w.U64(progress.inflight_executions);
  w.U8(progress.cancelled);
  w.U8(progress.deadline_expired);
  w.I64(progress.first_step_round);
  return w.Take();
}

Status DecodeProgress(BytesView payload, WireProgress* progress) {
  WireReader r(payload);
  uint8_t state;
  MUFUZZ_RETURN_IF_ERROR(r.U8(&state));
  if (state > static_cast<uint8_t>(engine::JobState::kDone)) {
    return Status::ParseError("unknown job state " + std::to_string(state));
  }
  progress->state = static_cast<engine::JobState>(state);
  MUFUZZ_RETURN_IF_ERROR(r.U64(&progress->executions));
  MUFUZZ_RETURN_IF_ERROR(r.U64(&progress->transactions));
  MUFUZZ_RETURN_IF_ERROR(r.F64(&progress->coverage));
  MUFUZZ_RETURN_IF_ERROR(r.U64(&progress->bugs_found));
  MUFUZZ_RETURN_IF_ERROR(r.I32(&progress->round_index));
  MUFUZZ_RETURN_IF_ERROR(r.I32(&progress->fanout));
  MUFUZZ_RETURN_IF_ERROR(r.I32(&progress->parents_in_flight));
  MUFUZZ_RETURN_IF_ERROR(r.U64(&progress->inflight_executions));
  MUFUZZ_RETURN_IF_ERROR(ReadBool(&r, &progress->cancelled));
  MUFUZZ_RETURN_IF_ERROR(ReadBool(&r, &progress->deadline_expired));
  MUFUZZ_RETURN_IF_ERROR(r.I64(&progress->first_step_round));
  return r.ExpectDone();
}

// ----------------------------------------------------------------- Result ---

void EncodeCampaignResult(const fuzzer::CampaignResult& result,
                          WireWriter* w) {
  w->F64(result.branch_coverage);
  w->F64(result.user_branch_coverage);
  w->U64(result.covered_branches);
  w->I32(result.total_jumpis);
  w->U32(static_cast<uint32_t>(result.coverage_curve.size()));
  for (const auto& [executions, coverage] : result.coverage_curve) {
    w->I32(executions);
    w->F64(coverage);
  }
  w->U32(static_cast<uint32_t>(result.bugs.size()));
  for (const analysis::BugReport& bug : result.bugs) {
    w->U8(static_cast<uint8_t>(bug.bug));
    w->U32(bug.pc);
    w->I32(bug.line);
    w->Str(bug.detail);
    w->I32(bug.function_index);
  }
  w->U32(static_cast<uint32_t>(result.bug_classes.size()));
  for (analysis::BugClass bug : result.bug_classes) {
    w->U8(static_cast<uint8_t>(bug));
  }
  w->U64(result.executions);
  w->U64(result.transactions);
  w->U64(result.instructions);
  w->U64(result.masks_computed);
  const fuzzer::SeedQueueStats& q = result.queue_stats;
  w->U64(q.admitted);
  w->U64(q.rejected);
  w->U64(q.evicted);
  w->U64(q.imported);
  w->U64(q.exported);
  w->U64(q.final_queue);
  w->U64(q.selects);
  w->U64(q.select_rounds);
  w->F64(q.selects_per_round);
  w->I32(result.island_id);
  w->U8(result.cancelled);
}

namespace {

Status ReadBugClass(WireReader* r, analysis::BugClass* bug) {
  uint8_t raw;
  MUFUZZ_RETURN_IF_ERROR(r->U8(&raw));
  if (raw >= analysis::kNumBugClasses) {
    return Status::ParseError("unknown bug class " + std::to_string(raw));
  }
  *bug = static_cast<analysis::BugClass>(raw);
  return Status::OK();
}

}  // namespace

Status DecodeCampaignResult(WireReader* r, fuzzer::CampaignResult* result) {
  MUFUZZ_RETURN_IF_ERROR(r->F64(&result->branch_coverage));
  MUFUZZ_RETURN_IF_ERROR(r->F64(&result->user_branch_coverage));
  uint64_t covered;
  MUFUZZ_RETURN_IF_ERROR(r->U64(&covered));
  result->covered_branches = static_cast<size_t>(covered);
  MUFUZZ_RETURN_IF_ERROR(r->I32(&result->total_jumpis));
  uint32_t count;
  MUFUZZ_RETURN_IF_ERROR(r->U32(&count));
  result->coverage_curve.clear();
  for (uint32_t i = 0; i < count; ++i) {
    int32_t executions;
    double coverage;
    MUFUZZ_RETURN_IF_ERROR(r->I32(&executions));
    MUFUZZ_RETURN_IF_ERROR(r->F64(&coverage));
    result->coverage_curve.emplace_back(executions, coverage);
  }
  MUFUZZ_RETURN_IF_ERROR(r->U32(&count));
  result->bugs.clear();
  for (uint32_t i = 0; i < count; ++i) {
    analysis::BugReport bug;
    MUFUZZ_RETURN_IF_ERROR(ReadBugClass(r, &bug.bug));
    MUFUZZ_RETURN_IF_ERROR(r->U32(&bug.pc));
    MUFUZZ_RETURN_IF_ERROR(r->I32(&bug.line));
    MUFUZZ_RETURN_IF_ERROR(r->Str(&bug.detail));
    MUFUZZ_RETURN_IF_ERROR(r->I32(&bug.function_index));
    result->bugs.push_back(std::move(bug));
  }
  MUFUZZ_RETURN_IF_ERROR(r->U32(&count));
  result->bug_classes.clear();
  for (uint32_t i = 0; i < count; ++i) {
    analysis::BugClass bug;
    MUFUZZ_RETURN_IF_ERROR(ReadBugClass(r, &bug));
    result->bug_classes.insert(bug);
  }
  MUFUZZ_RETURN_IF_ERROR(r->U64(&result->executions));
  MUFUZZ_RETURN_IF_ERROR(r->U64(&result->transactions));
  MUFUZZ_RETURN_IF_ERROR(r->U64(&result->instructions));
  MUFUZZ_RETURN_IF_ERROR(r->U64(&result->masks_computed));
  fuzzer::SeedQueueStats& q = result->queue_stats;
  MUFUZZ_RETURN_IF_ERROR(r->U64(&q.admitted));
  MUFUZZ_RETURN_IF_ERROR(r->U64(&q.rejected));
  MUFUZZ_RETURN_IF_ERROR(r->U64(&q.evicted));
  MUFUZZ_RETURN_IF_ERROR(r->U64(&q.imported));
  MUFUZZ_RETURN_IF_ERROR(r->U64(&q.exported));
  MUFUZZ_RETURN_IF_ERROR(r->U64(&q.final_queue));
  MUFUZZ_RETURN_IF_ERROR(r->U64(&q.selects));
  MUFUZZ_RETURN_IF_ERROR(r->U64(&q.select_rounds));
  MUFUZZ_RETURN_IF_ERROR(r->F64(&q.selects_per_round));
  MUFUZZ_RETURN_IF_ERROR(r->I32(&result->island_id));
  uint8_t cancelled;
  MUFUZZ_RETURN_IF_ERROR(r->U8(&cancelled));
  if (cancelled > 1) {
    return Status::ParseError("wire bool must be 0 or 1, got " +
                              std::to_string(cancelled));
  }
  result->cancelled = cancelled != 0;
  return Status::OK();
}

// ---------------------------------------------------------------- Outcome ---

Bytes EncodeOutcome(const engine::JobOutcome& outcome) {
  WireWriter w;
  w.Str(outcome.name);
  w.Str(outcome.error);
  w.U8(outcome.result.has_value());
  if (outcome.result.has_value()) {
    EncodeCampaignResult(*outcome.result, &w);
  }
  return w.Take();
}

Status DecodeOutcome(BytesView payload, WireOutcome* outcome) {
  WireReader r(payload);
  MUFUZZ_RETURN_IF_ERROR(r.Str(&outcome->name));
  MUFUZZ_RETURN_IF_ERROR(r.Str(&outcome->error));
  MUFUZZ_RETURN_IF_ERROR(ReadBool(&r, &outcome->has_result));
  if (outcome->has_result) {
    MUFUZZ_RETURN_IF_ERROR(DecodeCampaignResult(&r, &outcome->result));
  }
  return r.ExpectDone();
}

// ------------------------------------------------------------------ Stats ---

Bytes EncodeStats(const engine::ServiceStats& stats) {
  WireWriter w;
  w.U64(stats.submitted);
  w.U64(stats.admitted);
  w.U64(stats.rejected_global);
  w.U64(stats.rejected_tenant);
  w.U64(stats.completed);
  w.U64(stats.cancelled);
  w.U64(stats.deadline_hits);
  w.U64(stats.rounds);
  w.U64(stats.live_jobs);
  w.U64(stats.queued_jobs);
  w.U64(stats.executions);
  w.F64(stats.executions_per_sec);
  w.U64(stats.sessions_created);
  w.U32(static_cast<uint32_t>(stats.tenants.size()));
  for (const engine::TenantStats& tenant : stats.tenants) {
    w.Str(tenant.tenant);
    w.U64(tenant.submitted);
    w.U64(tenant.admitted);
    w.U64(tenant.rejected);
    w.U64(tenant.completed);
    w.U64(tenant.cancelled);
    w.U64(tenant.deadline_hits);
    w.U64(tenant.executions);
    w.U64(tenant.stepped_quanta);
    w.U64(tenant.live_jobs);
    w.U64(tenant.queued_jobs);
  }
  return w.Take();
}

Status DecodeStats(BytesView payload, engine::ServiceStats* stats) {
  WireReader r(payload);
  uint64_t size;
  MUFUZZ_RETURN_IF_ERROR(r.U64(&stats->submitted));
  MUFUZZ_RETURN_IF_ERROR(r.U64(&stats->admitted));
  MUFUZZ_RETURN_IF_ERROR(r.U64(&stats->rejected_global));
  MUFUZZ_RETURN_IF_ERROR(r.U64(&stats->rejected_tenant));
  MUFUZZ_RETURN_IF_ERROR(r.U64(&stats->completed));
  MUFUZZ_RETURN_IF_ERROR(r.U64(&stats->cancelled));
  MUFUZZ_RETURN_IF_ERROR(r.U64(&stats->deadline_hits));
  MUFUZZ_RETURN_IF_ERROR(r.U64(&stats->rounds));
  MUFUZZ_RETURN_IF_ERROR(r.U64(&size));
  stats->live_jobs = static_cast<size_t>(size);
  MUFUZZ_RETURN_IF_ERROR(r.U64(&size));
  stats->queued_jobs = static_cast<size_t>(size);
  MUFUZZ_RETURN_IF_ERROR(r.U64(&stats->executions));
  MUFUZZ_RETURN_IF_ERROR(r.F64(&stats->executions_per_sec));
  MUFUZZ_RETURN_IF_ERROR(r.U64(&size));
  stats->sessions_created = static_cast<size_t>(size);
  uint32_t count;
  MUFUZZ_RETURN_IF_ERROR(r.U32(&count));
  stats->tenants.clear();
  for (uint32_t i = 0; i < count; ++i) {
    engine::TenantStats tenant;
    MUFUZZ_RETURN_IF_ERROR(r.Str(&tenant.tenant));
    MUFUZZ_RETURN_IF_ERROR(r.U64(&tenant.submitted));
    MUFUZZ_RETURN_IF_ERROR(r.U64(&tenant.admitted));
    MUFUZZ_RETURN_IF_ERROR(r.U64(&tenant.rejected));
    MUFUZZ_RETURN_IF_ERROR(r.U64(&tenant.completed));
    MUFUZZ_RETURN_IF_ERROR(r.U64(&tenant.cancelled));
    MUFUZZ_RETURN_IF_ERROR(r.U64(&tenant.deadline_hits));
    MUFUZZ_RETURN_IF_ERROR(r.U64(&tenant.executions));
    MUFUZZ_RETURN_IF_ERROR(r.U64(&tenant.stepped_quanta));
    MUFUZZ_RETURN_IF_ERROR(r.U64(&size));
    tenant.live_jobs = static_cast<size_t>(size);
    MUFUZZ_RETURN_IF_ERROR(r.U64(&size));
    tenant.queued_jobs = static_cast<size_t>(size);
    stats->tenants.push_back(std::move(tenant));
  }
  return r.ExpectDone();
}

// ------------------------------------------------------------------ Error ---

Bytes EncodeError(const Status& status) {
  WireWriter w;
  w.U32(StatusCodeToWire(status.code()));
  w.Str(status.message());
  return w.Take();
}

Status DecodeError(BytesView payload) {
  WireReader r(payload);
  uint32_t wire_code;
  std::string message;
  Status parse = r.U32(&wire_code);
  if (parse.ok()) parse = r.Str(&message);
  if (parse.ok()) parse = r.ExpectDone();
  if (!parse.ok()) return parse;
  StatusCode code;
  if (!StatusCodeFromWire(wire_code, &code) || code == StatusCode::kOk) {
    return Status::Internal("peer sent unknown status code " +
                            std::to_string(wire_code) + ": " + message);
  }
  return Status::FromCode(code, std::move(message));
}

// -------------------------------------------------------------- Frame I/O ---

namespace {

/// Reads exactly `n` bytes. Returns 1 on success, 0 on clean EOF before the
/// first byte, -1 on error or mid-buffer EOF.
int ReadFull(int fd, uint8_t* buffer, size_t n) {
  size_t done = 0;
  while (done < n) {
    ssize_t got = ::read(fd, buffer + done, n - done);
    if (got == 0) return done == 0 ? 0 : -1;
    if (got < 0) {
      if (errno == EINTR) continue;
      return -1;
    }
    done += static_cast<size_t>(got);
  }
  return 1;
}

bool WriteFull(int fd, const uint8_t* buffer, size_t n) {
  size_t done = 0;
  while (done < n) {
    ssize_t put = ::send(fd, buffer + done, n - done, MSG_NOSIGNAL);
    if (put < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    done += static_cast<size_t>(put);
  }
  return true;
}

}  // namespace

FrameRead ReadFrame(int fd, uint8_t* verb, Bytes* payload) {
  uint8_t header[4];
  int got = ReadFull(fd, header, sizeof(header));
  if (got == 0) return FrameRead::kEof;
  if (got < 0) return FrameRead::kIoError;
  uint32_t length = 0;
  for (int i = 0; i < 4; ++i) length |= uint32_t(header[i]) << (8 * i);
  if (length == 0) return FrameRead::kMalformed;
  if (length > kMaxFrameLength) return FrameRead::kTooLarge;
  if (ReadFull(fd, verb, 1) != 1) return FrameRead::kIoError;
  payload->resize(length - 1);
  if (length > 1 && ReadFull(fd, payload->data(), payload->size()) != 1) {
    return FrameRead::kIoError;
  }
  return FrameRead::kOk;
}

bool WriteFrame(int fd, uint8_t verb, BytesView payload) {
  WireWriter w;
  w.U32(static_cast<uint32_t>(payload.size()) + 1);
  w.U8(verb);
  Bytes frame = w.Take();
  frame.insert(frame.end(), payload.begin(), payload.end());
  return WriteFull(fd, frame.data(), frame.size());
}

}  // namespace mufuzz::server
