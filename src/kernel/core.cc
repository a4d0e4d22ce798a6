#include "svr4proc/kernel/core.h"

#include <algorithm>
#include <cstring>

namespace svr4 {
namespace {

struct RawHeader {
  uint32_t magic;
  uint32_t version;
  int32_t sig;
  uint32_t nsegs;
  // PrStatus and PrPsinfo follow, then per-segment headers + bytes.
};

struct RawSeg {
  uint32_t vaddr;
  uint32_t mflags;
  uint32_t size;
};

constexpr uint32_t kVersion = 1;

template <typename T>
void Append(std::vector<uint8_t>& out, const T& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  size_t at = out.size();
  out.resize(at + sizeof(T));
  std::memcpy(out.data() + at, &v, sizeof(T));
}

template <typename T>
bool Take(std::span<const uint8_t>& in, T* v) {
  if (in.size() < sizeof(T)) {
    return false;
  }
  std::memcpy(v, in.data(), sizeof(T));
  in = in.subspan(sizeof(T));
  return true;
}

}  // namespace

std::vector<uint8_t> CoreDump::Serialize() const {
  std::vector<uint8_t> out;
  RawHeader hdr{kMagic, kVersion, sig, static_cast<uint32_t>(segments.size())};
  Append(out, hdr);
  Append(out, status);
  Append(out, psinfo);
  for (const auto& seg : segments) {
    RawSeg rs{seg.vaddr, seg.mflags, static_cast<uint32_t>(seg.bytes.size())};
    Append(out, rs);
    out.insert(out.end(), seg.bytes.begin(), seg.bytes.end());
  }
  return out;
}

Result<CoreDump> CoreDump::Parse(std::span<const uint8_t> bytes) {
  RawHeader hdr;
  if (!Take(bytes, &hdr) || hdr.magic != kMagic || hdr.version != kVersion) {
    return Errno::kEINVAL;
  }
  CoreDump core;
  core.sig = hdr.sig;
  if (!Take(bytes, &core.status) || !Take(bytes, &core.psinfo)) {
    return Errno::kEINVAL;
  }
  for (uint32_t i = 0; i < hdr.nsegs; ++i) {
    RawSeg rs;
    if (!Take(bytes, &rs) || bytes.size() < rs.size) {
      return Errno::kEINVAL;
    }
    Segment seg;
    seg.vaddr = rs.vaddr;
    seg.mflags = rs.mflags;
    seg.bytes.assign(bytes.begin(), bytes.begin() + rs.size);
    bytes = bytes.subspan(rs.size);
    core.segments.push_back(std::move(seg));
  }
  return core;
}

Result<int64_t> CoreDump::ReadMem(uint32_t vaddr, std::span<uint8_t> buf) const {
  for (const auto& seg : segments) {
    uint64_t end = seg.vaddr + seg.bytes.size();
    if (vaddr >= seg.vaddr && vaddr < end) {
      size_t n = std::min<uint64_t>(buf.size(), end - vaddr);
      std::memcpy(buf.data(), seg.bytes.data() + (vaddr - seg.vaddr), n);
      return static_cast<int64_t>(n);
    }
  }
  return Errno::kEIO;
}

}  // namespace svr4
