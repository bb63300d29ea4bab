#include "pregel/checkpoint.h"

#include <array>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "fault/fault.h"

namespace serigraph {

namespace {
constexpr uint32_t kMagic = 0x53474350;  // "SGCP"
constexpr uint32_t kVersion = 2;

/// Rotates an existing frame at `path` to `path + ".prev"`. A missing
/// `path` is fine (first checkpoint of a run).
void RotatePrev(const std::string& path) {
  const std::string prev = path + CheckpointPrevSuffix();
  std::remove(prev.c_str());
  std::rename(path.c_str(), prev.c_str());
}

/// Magic (u32), version (u32), superstep (u32), payload size (u64) and
/// payload CRC (u32) at fixed offsets, host byte order: what
/// ReadCheckpoint reads back.
using Header = std::array<uint8_t, 24>;

/// Encodes the header in place. (Appending it field by field to a
/// growing BufferWriter made GCC 12's Release build warn
/// -Wstringop-overflow on the vector insert.)
Header EncodeHeader(const CheckpointFrame& frame) {
  const uint32_t superstep = static_cast<uint32_t>(frame.superstep);
  const uint64_t payload_size = frame.payload.size();
  const uint32_t crc = Crc32(frame.payload.data(), frame.payload.size());
  Header header;
  std::memcpy(header.data(), &kMagic, 4);
  std::memcpy(header.data() + 4, &kVersion, 4);
  std::memcpy(header.data() + 8, &superstep, 4);
  std::memcpy(header.data() + 12, &payload_size, 8);
  std::memcpy(header.data() + 20, &crc, 4);
  return header;
}

Status WriteBytes(const std::string& path, const Header& header,
                  const uint8_t* payload, size_t payload_size) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IoError("cannot open " + path);
  out.write(reinterpret_cast<const char*>(header.data()),
            static_cast<std::streamsize>(header.size()));
  out.write(reinterpret_cast<const char*>(payload),
            static_cast<std::streamsize>(payload_size));
  if (!out) return Status::IoError("write failed for " + path);
  return Status::OK();
}

}  // namespace

uint32_t Crc32(const uint8_t* data, size_t size) {
  static const std::array<uint32_t, 256> table = [] {
    std::array<uint32_t, 256> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < size; ++i) {
    crc = table[(crc ^ data[i]) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

Status WriteCheckpoint(const std::string& path,
                       const CheckpointFrame& frame) {
  CheckpointFault fault = CheckpointFault::kNone;
  if (FaultInjector::armed()) {
    fault = FaultInjector::Get().OnCheckpointWrite();
  }
  if (fault == CheckpointFault::kFail) {
    return Status::IoError(path +
                           ": injected checkpoint write failure (ENOSPC)");
  }
  const Header header = EncodeHeader(frame);
  if (fault == CheckpointFault::kTorn) {
    // Simulate a torn write the filesystem reported as durable: the header
    // (with the full-payload size and CRC) lands, but only half the payload
    // does. The frame is detectable only by the size/CRC checks on read.
    RotatePrev(path);
    return WriteBytes(path, header, frame.payload.data(),
                      frame.payload.size() / 2);
  }
  const std::string tmp = path + ".tmp";
  SERIGRAPH_RETURN_IF_ERROR(
      WriteBytes(tmp, header, frame.payload.data(), frame.payload.size()));
  RotatePrev(path);
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return Status::IoError("rename failed for " + path);
  }
  return Status::OK();
}

StatusOr<CheckpointFrame> ReadCheckpoint(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open " + path);
  std::vector<uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
  BufferReader reader(bytes);
  uint32_t magic, version, superstep, crc;
  uint64_t payload_size;
  if (!reader.ReadU32(&magic) || magic != kMagic) {
    return Status::IoError(path + ": bad checkpoint magic");
  }
  if (!reader.ReadU32(&version) || version != kVersion) {
    return Status::IoError(path + ": unsupported checkpoint version");
  }
  if (!reader.ReadU32(&superstep) || !reader.ReadU64(&payload_size) ||
      !reader.ReadU32(&crc) || payload_size != reader.Remaining()) {
    return Status::IoError(path + ": truncated checkpoint");
  }
  const uint8_t* payload = bytes.data() + reader.position();
  if (Crc32(payload, payload_size) != crc) {
    return Status::IoError(path + ": payload CRC mismatch (torn write?)");
  }
  CheckpointFrame frame;
  frame.superstep = static_cast<int>(superstep);
  frame.payload.assign(payload, payload + payload_size);
  return frame;
}

StatusOr<CheckpointFrame> ReadCheckpointWithFallback(const std::string& path,
                                                     std::string* source) {
  StatusOr<CheckpointFrame> latest = ReadCheckpoint(path);
  if (latest.ok()) {
    if (source != nullptr) *source = path;
    return latest;
  }
  const std::string prev = path + CheckpointPrevSuffix();
  StatusOr<CheckpointFrame> fallback = ReadCheckpoint(prev);
  if (fallback.ok()) {
    if (source != nullptr) *source = prev;
    return fallback;
  }
  return Status::IoError(path + ": unreadable (" + latest.status().message() +
                         "); fallback " + prev + " unreadable (" +
                         fallback.status().message() + ")");
}

}  // namespace serigraph
