#include "core/checkpoint.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>

namespace sttr {

namespace {

constexpr char kMagic[8] = {'S', 'T', 'T', 'R', 'C', 'K', 'P', '1'};
// A name longer than this is garbage from a corrupted header, not a real
// section; bail before trying to allocate it.
constexpr uint32_t kMaxSectionName = 256;

const std::array<uint32_t, 256>& Crc32Table() {
  static const std::array<uint32_t, 256> table = [] {
    std::array<uint32_t, 256> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  return table;
}

}  // namespace

uint32_t Crc32(std::string_view data, uint32_t seed) {
  const auto& table = Crc32Table();
  uint32_t c = seed ^ 0xFFFFFFFFu;
  for (unsigned char byte : data) {
    c = table[(c ^ byte) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

void AppendU32(std::string& out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
  }
}

void AppendU64(std::string& out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
  }
}

void AppendDouble(std::string& out, double v) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  AppendU64(out, bits);
}

bool ReadU32(std::string_view& in, uint32_t* v) {
  if (in.size() < 4) return false;
  uint32_t out = 0;
  for (int i = 0; i < 4; ++i) {
    out |= static_cast<uint32_t>(static_cast<unsigned char>(in[static_cast<size_t>(i)]))
           << (8 * i);
  }
  in.remove_prefix(4);
  *v = out;
  return true;
}

bool ReadU64(std::string_view& in, uint64_t* v) {
  if (in.size() < 8) return false;
  uint64_t out = 0;
  for (int i = 0; i < 8; ++i) {
    out |= static_cast<uint64_t>(static_cast<unsigned char>(in[static_cast<size_t>(i)]))
           << (8 * i);
  }
  in.remove_prefix(8);
  *v = out;
  return true;
}

bool ReadDouble(std::string_view& in, double* v) {
  uint64_t bits = 0;
  if (!ReadU64(in, &bits)) return false;
  std::memcpy(v, &bits, sizeof(*v));
  return true;
}

bool ReadBytes(std::string_view& in, size_t n, std::string_view* v) {
  if (in.size() < n) return false;
  *v = in.substr(0, n);
  in.remove_prefix(n);
  return true;
}

void CheckpointWriter::AddSection(std::string name, std::string payload) {
  CheckpointSection s;
  s.crc = Crc32(payload);
  s.name = std::move(name);
  s.payload = std::move(payload);
  sections_.push_back(std::move(s));
}

std::string CheckpointWriter::Encode() const {
  std::string out;
  out.append(kMagic, sizeof(kMagic));
  AppendU32(out, version_);
  AppendU32(out, static_cast<uint32_t>(sections_.size()));
  for (const CheckpointSection& s : sections_) {
    AppendU32(out, static_cast<uint32_t>(s.name.size()));
    out.append(s.name);
    AppendU64(out, s.payload.size());
    out.append(s.payload);
    AppendU32(out, s.crc);
  }
  return out;
}

Status CheckpointWriter::WriteTo(Env& env, const std::string& path) const {
  return AtomicWriteFile(env, path, Encode());
}

StatusOr<CheckpointReader> CheckpointReader::Parse(
    std::string bytes, uint32_t max_supported_version) {
  std::string_view in(bytes);
  std::string_view magic;
  if (!ReadBytes(in, sizeof(kMagic), &magic) ||
      std::memcmp(magic.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::IOError("checkpoint: bad magic (not a checkpoint file?)");
  }
  CheckpointReader reader;
  uint32_t count = 0;
  if (!ReadU32(in, &reader.version_) || !ReadU32(in, &count)) {
    return Status::IOError("checkpoint: truncated header");
  }
  if (reader.version_ == 0 || reader.version_ > max_supported_version) {
    return Status::IOError("checkpoint: unsupported format version " +
                           std::to_string(reader.version_) +
                           " (this reader supports 1.." +
                           std::to_string(max_supported_version) + ")");
  }
  for (uint32_t i = 0; i < count; ++i) {
    uint32_t name_len = 0;
    if (!ReadU32(in, &name_len)) {
      return Status::IOError("checkpoint: truncated section header");
    }
    if (name_len == 0 || name_len > kMaxSectionName) {
      return Status::IOError("checkpoint: corrupt section name length");
    }
    std::string_view name;
    uint64_t payload_len = 0;
    if (!ReadBytes(in, name_len, &name) || !ReadU64(in, &payload_len)) {
      return Status::IOError("checkpoint: truncated section header");
    }
    std::string_view payload;
    uint32_t stored_crc = 0;
    if (!ReadBytes(in, payload_len, &payload) || !ReadU32(in, &stored_crc)) {
      return Status::IOError("checkpoint: truncated section '" +
                             std::string(name) + "'");
    }
    const uint32_t actual_crc = Crc32(payload);
    if (actual_crc != stored_crc) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), " (stored %08x, computed %08x)",
                    stored_crc, actual_crc);
      return Status::IOError("checkpoint: checksum mismatch in section '" +
                             std::string(name) + "'" + buf);
    }
    CheckpointSection s;
    s.name = std::string(name);
    s.payload = std::string(payload);
    s.crc = stored_crc;
    reader.sections_.push_back(std::move(s));
  }
  if (!in.empty()) {
    return Status::IOError("checkpoint: trailing garbage after last section");
  }
  return reader;
}

StatusOr<CheckpointReader> CheckpointReader::Open(
    Env& env, const std::string& path, uint32_t max_supported_version) {
  StatusOr<std::string> bytes = env.ReadFile(path);
  if (!bytes.ok()) return bytes.status();
  return Parse(std::move(bytes).value(), max_supported_version);
}

bool CheckpointReader::HasSection(std::string_view name) const {
  for (const CheckpointSection& s : sections_) {
    if (s.name == name) return true;
  }
  return false;
}

StatusOr<std::string> CheckpointReader::Section(std::string_view name) const {
  for (const CheckpointSection& s : sections_) {
    if (s.name == name) return s.payload;
  }
  return Status::NotFound("checkpoint: no section '" + std::string(name) +
                          "'");
}

std::string CheckpointFileName(size_t epoch) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "ckpt-%06zu.sttr", epoch);
  return buf;
}

StatusOr<size_t> ParseCheckpointEpoch(const std::string& filename) {
  size_t epoch = 0;
  int consumed = 0;
  if (std::sscanf(filename.c_str(), "ckpt-%zu.sttr%n", &epoch, &consumed) !=
          1 ||
      static_cast<size_t>(consumed) != filename.size()) {
    return Status::InvalidArgument("not a checkpoint file name: " + filename);
  }
  return epoch;
}

StatusOr<std::string> FindLatestValidCheckpoint(Env& env,
                                                const std::string& dir,
                                                std::string_view verified,
                                                size_t min_epoch) {
  StatusOr<std::vector<std::string>> names = env.ListDir(dir);
  if (!names.ok()) return names.status();
  std::vector<std::pair<size_t, std::string>> found;
  for (const std::string& name : *names) {
    StatusOr<size_t> epoch = ParseCheckpointEpoch(name);
    if (epoch.ok() && *epoch >= min_epoch) found.emplace_back(*epoch, name);
  }
  std::sort(found.begin(), found.end());
  // Newest first; a torn or bit-rotted newer file falls back to the previous
  // complete one instead of failing the resume outright.
  for (auto it = found.rbegin(); it != found.rend(); ++it) {
    const std::string path = dir + "/" + it->second;
    if (path == verified || CheckpointReader::Open(env, path).ok()) {
      return path;
    }
  }
  return Status::NotFound("no valid checkpoint in " + dir);
}

Status RotateCheckpoints(Env& env, const std::string& dir, size_t keep) {
  if (keep == 0) {
    return Status::InvalidArgument("RotateCheckpoints: keep must be >= 1");
  }
  StatusOr<std::vector<std::string>> names = env.ListDir(dir);
  if (!names.ok()) return names.status();
  std::vector<std::pair<size_t, std::string>> found;
  for (const std::string& name : *names) {
    StatusOr<size_t> epoch = ParseCheckpointEpoch(name);
    if (epoch.ok()) {
      found.emplace_back(*epoch, name);
    } else if (IsTempFileName(name)) {
      // Residue of an interrupted atomic write; always safe to delete.
      STTR_RETURN_IF_ERROR(env.Remove(dir + "/" + name));
    }
  }
  std::sort(found.begin(), found.end());
  const size_t excess = found.size() > keep ? found.size() - keep : 0;
  for (size_t i = 0; i < excess; ++i) {
    STTR_RETURN_IF_ERROR(env.Remove(dir + "/" + found[i].second));
  }
  return Status::OK();
}

}  // namespace sttr
