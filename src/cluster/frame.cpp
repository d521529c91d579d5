#include "cluster/frame.hpp"

#include <sstream>

#include "svc/codec.hpp"
#include "svc/wire.hpp"

namespace dsm::cluster {
namespace {

using svc::wire::dbl;
using svc::wire::netstr;
using svc::wire::Parser;

Result<MsgType> msg_type_from_name(const std::string& name) {
  for (int i = 0; i < kMsgTypeCount; ++i) {
    const auto t = static_cast<MsgType>(i);
    if (name == msg_type_name(t)) return t;
  }
  return Status::corrupt_frame("unknown message type: " + name);
}

}  // namespace

const char* msg_type_name(MsgType t) {
  switch (t) {
    case MsgType::kHello: return "hello";
    case MsgType::kTask: return "task";
    case MsgType::kMark: return "mark";
    case MsgType::kDone: return "done";
    case MsgType::kShutdown: return "shutdown";
    case MsgType::kHeartbeat: return "heartbeat";
  }
  return "?";
}

namespace {

void put_checksum(std::ostringstream& os, const sort::Checksum& c) {
  os << ' ' << c.count << ' ' << c.sum << ' ' << c.xor_ << ' ' << c.sum_sq;
}

sort::Checksum get_checksum(Parser& p) {
  sort::Checksum c;
  c.count = p.u64();
  c.sum = p.u64();
  c.xor_ = p.u64();
  c.sum_sq = p.u64();
  return c;
}

}  // namespace

std::string encode_message(const WireMessage& m) {
  std::ostringstream os;
  os << msg_type_name(m.type);
  switch (m.type) {
    case MsgType::kHello:
      os << ' ' << m.version << ' ' << m.pid << ' ' << netstr(m.label);
      break;
    case MsgType::kTask:
      os << ' ' << m.task_id << ' ' << m.attempt << ' ' << (m.audit ? 1 : 0)
         << ' ' << m.cache_budget << ' ' << m.faults.seed << ' '
         << dbl(m.faults.rate) << ' ' << m.faults.sites << ' '
         << m.job.svc_seq;
      svc::codec::put_job(os, m.job);
      svc::codec::put_plan(os, m.plan);
      os << ' ' << m.heartbeat_ms << ' ' << (m.check_integrity ? 1 : 0);
      put_checksum(os, m.expect);
      break;
    case MsgType::kMark:
      os << ' ' << m.task_id << ' ' << netstr(m.site) << ' '
         << dbl(m.virtual_ns);
      break;
    case MsgType::kHeartbeat:
      os << ' ' << m.task_id << ' ' << m.beats << ' ' << dbl(m.virtual_ns);
      break;
    case MsgType::kDone:
      os << ' ' << m.task_id << ' ' << (m.ok ? 1 : 0) << ' '
         << dbl(m.measured_ns) << ' ' << m.passes << ' '
         << (m.verified ? 1 : 0) << ' ' << m.fired_site << ' '
         << status_code_name(m.failure.code()) << ' '
         << netstr(m.failure.message()) << ' '
         << (m.failure.retryable() ? 1 : 0);
      put_checksum(os, m.input_cs);
      os << ' ' << m.run_hash;
      break;
    case MsgType::kShutdown:
      break;
  }
  return os.str();
}

Result<WireMessage> decode_message(const std::string& payload) {
  return svc::wire::decode([&] {
    Parser p(payload, &Status::corrupt_frame, "wire message");
    WireMessage m;
    m.type = p.must(msg_type_from_name(p.tok()));
    switch (m.type) {
      case MsgType::kHello:
        m.version = p.i32();
        m.pid = p.u64();
        m.label = p.str();
        break;
      case MsgType::kTask: {
        m.task_id = p.u64();
        m.attempt = p.i32();
        m.audit = p.b();
        m.cache_budget = p.u64();
        m.faults.seed = p.u64();
        m.faults.rate = p.d();
        m.faults.sites = static_cast<std::uint32_t>(p.u64());
        const std::uint64_t seq = p.u64();
        m.job = svc::codec::get_job(p);
        m.job.svc_seq = seq;
        m.plan = svc::codec::get_plan(p);
        m.heartbeat_ms = p.i32();
        m.check_integrity = p.b();
        m.expect = get_checksum(p);
        break;
      }
      case MsgType::kMark:
        m.task_id = p.u64();
        m.site = p.str();
        m.virtual_ns = p.d();
        break;
      case MsgType::kHeartbeat:
        m.task_id = p.u64();
        m.beats = p.u64();
        m.virtual_ns = p.d();
        break;
      case MsgType::kDone: {
        m.task_id = p.u64();
        m.ok = p.b();
        m.measured_ns = p.d();
        m.passes = p.i32();
        m.verified = p.b();
        m.fired_site = p.i32();
        const StatusCode code = p.must(status_code_from_name(p.tok()));
        const std::string msg = p.str();
        const bool retryable = p.b();
        m.failure =
            code == StatusCode::kOk ? Status() : Status(code, msg, retryable);
        m.input_cs = get_checksum(p);
        m.run_hash = p.u64();
        break;
      }
      case MsgType::kShutdown:
        break;
    }
    return m;
  });
}

Status send_message(Channel& ch, const WireMessage& m) {
  return ch.send_frame(encode_message(m));
}

Result<WireMessage> recv_message(Channel& ch, int timeout_ms) {
  Result<std::string> payload = ch.recv_frame(timeout_ms);
  if (!payload.ok()) return payload.status();
  return decode_message(*payload);
}

}  // namespace dsm::cluster
