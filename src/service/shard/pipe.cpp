#include "service/shard/pipe.hpp"

#include <cstdio>
#include <cstring>

#include "util/error.hpp"

namespace fadesched::service::shard {
namespace {

void PutU32(std::string& out, std::uint32_t v) {
  char buf[4];
  for (int i = 0; i < 4; ++i) buf[i] = static_cast<char>(v >> (8 * i));
  out.append(buf, 4);
}

void PutU64(std::string& out, std::uint64_t v) {
  char buf[8];
  for (int i = 0; i < 8; ++i) buf[i] = static_cast<char>(v >> (8 * i));
  out.append(buf, 8);
}

std::uint32_t GetU32(const char* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i)
    v |= static_cast<std::uint32_t>(static_cast<unsigned char>(p[i]))
         << (8 * i);
  return v;
}

std::uint64_t GetU64(const char* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i)
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(p[i]))
         << (8 * i);
  return v;
}

}  // namespace

void AppendPipeMsg(std::string& out, PipeMsgKind kind, std::uint64_t ticket,
                   std::string_view payload) {
  if (payload.size() > kMaxPipePayloadBytes) {
    throw util::FatalError("pipe payload of " +
                           std::to_string(payload.size()) +
                           " bytes exceeds the " +
                           std::to_string(kMaxPipePayloadBytes) + " cap");
  }
  out.reserve(out.size() + kPipeHeaderBytes + payload.size());
  PutU32(out, kPipeMagic);
  PutU32(out, static_cast<std::uint32_t>(kind));
  PutU64(out, ticket);
  PutU32(out, static_cast<std::uint32_t>(payload.size()));
  out += payload;
}

void AppendPipeMsg(std::string& out, const PipeMsg& msg) {
  AppendPipeMsg(out, msg.kind, msg.ticket, msg.payload);
}

void PipeDecoder::Feed(const char* data, std::size_t size) {
  buffer_.append(data, size);
}

std::optional<PipeMsg> PipeDecoder::Pop() {
  if (buffer_.size() < kPipeHeaderBytes) return std::nullopt;
  const char* p = buffer_.data();
  const std::uint32_t magic = GetU32(p);
  if (magic != kPipeMagic) {
    throw util::FatalError("shard pipe framing lost: bad magic 0x" + [&] {
      char hex[9];
      std::snprintf(hex, sizeof hex, "%08x", magic);
      return std::string(hex);
    }());
  }
  const std::uint32_t kind = GetU32(p + 4);
  if (kind < 1 || kind > 4) {
    throw util::FatalError("shard pipe framing lost: unknown kind " +
                           std::to_string(kind));
  }
  const std::uint64_t ticket = GetU64(p + 8);
  const std::uint32_t length = GetU32(p + 16);
  if (length > kMaxPipePayloadBytes) {
    throw util::FatalError("shard pipe framing lost: payload length " +
                           std::to_string(length) + " exceeds the " +
                           std::to_string(kMaxPipePayloadBytes) + " cap");
  }
  if (buffer_.size() < kPipeHeaderBytes + length) return std::nullopt;
  PipeMsg msg;
  msg.kind = static_cast<PipeMsgKind>(kind);
  msg.ticket = ticket;
  msg.payload.assign(buffer_, kPipeHeaderBytes, length);
  buffer_.erase(0, kPipeHeaderBytes + length);
  return msg;
}

}  // namespace fadesched::service::shard
