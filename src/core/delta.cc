#include "core/delta.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <utility>

namespace sttr {

namespace {

constexpr std::string_view kSectionDeltaMeta = "delta_meta";
constexpr std::string_view kSectionConfig = "config";
constexpr std::string_view kSectionDense = "delta_dense";

const char* RowSectionName(int table) {
  switch (table) {
    case 0:
      return "delta_rows_user";
    case 1:
      return "delta_rows_poi";
    default:
      return "delta_rows_word";
  }
}

std::string EncodeRowDelta(const EmbeddingRowDelta& t) {
  std::string out;
  AppendU64(out, t.dim);
  AppendU64(out, t.rows.size());
  out.reserve(out.size() + t.rows.size() * (8 + t.dim * sizeof(float)));
  for (size_t i = 0; i < t.rows.size(); ++i) {
    AppendU64(out, static_cast<uint64_t>(t.rows[i]));
    out.append(reinterpret_cast<const char*>(t.values.data() + i * t.dim),
               t.dim * sizeof(float));
  }
  return out;
}

Status DecodeRowDelta(std::string_view name, std::string_view in,
                      EmbeddingRowDelta* out) {
  uint64_t count = 0;
  if (!ReadU64(in, &out->dim) || !ReadU64(in, &count)) {
    return Status::IOError("delta: truncated header in section '" +
                           std::string(name) + "'");
  }
  if (count > 0 && out->dim == 0) {
    return Status::IOError("delta: zero dim with nonzero rows in section '" +
                           std::string(name) + "'");
  }
  const size_t row_bytes = 8 + out->dim * sizeof(float);
  if (in.size() != count * row_bytes) {
    return Status::IOError("delta: section '" + std::string(name) +
                           "' size does not match its row count");
  }
  out->rows.reserve(count);
  out->values.resize(count * out->dim);
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t row = 0;
    std::string_view bytes;
    if (!ReadU64(in, &row) ||
        !ReadBytes(in, out->dim * sizeof(float), &bytes)) {
      return Status::IOError("delta: truncated row in section '" +
                             std::string(name) + "'");
    }
    out->rows.push_back(static_cast<int64_t>(row));
    std::memcpy(out->values.data() + i * out->dim, bytes.data(), bytes.size());
  }
  return Status::OK();
}

}  // namespace

std::string EncodeDeltaCheckpoint(const DeltaCheckpoint& delta) {
  CheckpointWriter writer(kDeltaCheckpointFormatVersion);
  std::string meta;
  AppendU64(meta, delta.base_epoch);
  AppendU32(meta, delta.base_model_crc);
  AppendU64(meta, delta.seq);
  AppendU64(meta, delta.events_applied);
  writer.AddSection(std::string(kSectionDeltaMeta), std::move(meta));
  writer.AddSection(std::string(kSectionConfig), delta.config_fingerprint);
  const EmbeddingRowDelta* tables[3] = {&delta.user, &delta.poi, &delta.word};
  for (int t = 0; t < 3; ++t) {
    writer.AddSection(RowSectionName(t), EncodeRowDelta(*tables[t]));
  }
  if (!delta.dense_params.empty()) {
    writer.AddSection(std::string(kSectionDense), delta.dense_params);
  }
  return writer.Encode();
}

Status WriteDeltaCheckpoint(Env& env, const std::string& path,
                            const DeltaCheckpoint& delta) {
  return AtomicWriteFile(env, path, EncodeDeltaCheckpoint(delta));
}

StatusOr<DeltaCheckpoint> ParseDeltaCheckpoint(const CheckpointReader& reader) {
  if (reader.version() != kDeltaCheckpointFormatVersion) {
    return Status::IOError("delta: not a delta checkpoint (format version " +
                           std::to_string(reader.version()) + ", want " +
                           std::to_string(kDeltaCheckpointFormatVersion) + ")");
  }
  DeltaCheckpoint delta;
  StatusOr<std::string> meta = reader.Section(kSectionDeltaMeta);
  if (!meta.ok()) return meta.status();
  std::string_view in(*meta);
  if (!ReadU64(in, &delta.base_epoch) || !ReadU32(in, &delta.base_model_crc) ||
      !ReadU64(in, &delta.seq) || !ReadU64(in, &delta.events_applied) ||
      !in.empty()) {
    return Status::IOError("delta: malformed delta_meta section");
  }
  StatusOr<std::string> config = reader.Section(kSectionConfig);
  if (!config.ok()) return config.status();
  delta.config_fingerprint = std::move(*config);
  EmbeddingRowDelta* tables[3] = {&delta.user, &delta.poi, &delta.word};
  for (int t = 0; t < 3; ++t) {
    StatusOr<std::string> rows = reader.Section(RowSectionName(t));
    if (!rows.ok()) return rows.status();
    STTR_RETURN_IF_ERROR(DecodeRowDelta(RowSectionName(t), *rows, tables[t]));
  }
  if (reader.HasSection(kSectionDense)) {
    StatusOr<std::string> dense = reader.Section(kSectionDense);
    if (!dense.ok()) return dense.status();
    delta.dense_params = std::move(*dense);
  }
  return delta;
}

StatusOr<DeltaCheckpoint> ReadDeltaCheckpoint(Env& env,
                                              const std::string& path) {
  StatusOr<CheckpointReader> reader = CheckpointReader::Open(env, path);
  if (!reader.ok()) return reader.status();
  return ParseDeltaCheckpoint(*reader);
}

std::string DeltaFileName(uint64_t seq) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "delta-%06llu.sttr",
                static_cast<unsigned long long>(seq));
  return buf;
}

StatusOr<uint64_t> ParseDeltaSeq(const std::string& filename) {
  unsigned long long seq = 0;
  int consumed = 0;
  if (std::sscanf(filename.c_str(), "delta-%llu.sttr%n", &seq, &consumed) !=
          1 ||
      static_cast<size_t>(consumed) != filename.size()) {
    return Status::InvalidArgument("not a delta file name: " + filename);
  }
  return static_cast<uint64_t>(seq);
}

StatusOr<std::string> FindLatestValidDelta(Env& env, const std::string& dir,
                                           std::string_view applied) {
  StatusOr<std::vector<std::string>> names = env.ListDir(dir);
  if (!names.ok()) return names.status();
  std::vector<std::pair<uint64_t, std::string>> found;
  for (const std::string& name : *names) {
    StatusOr<uint64_t> seq = ParseDeltaSeq(name);
    if (seq.ok()) found.emplace_back(*seq, name);
  }
  std::sort(found.begin(), found.end());
  // Newest first; a torn newer delta falls back to the previous complete one
  // — deltas are cumulative, so the older one is still a correct (if less
  // fresh) patch against the same base.
  for (auto it = found.rbegin(); it != found.rend(); ++it) {
    const std::string path = dir + "/" + it->second;
    if (path == applied) return path;
    StatusOr<CheckpointReader> reader = CheckpointReader::Open(env, path);
    if (reader.ok() && ParseDeltaCheckpoint(*reader).ok()) return path;
  }
  return Status::NotFound("no valid delta in " + dir);
}

Status RotateDeltas(Env& env, const std::string& dir, size_t keep) {
  if (keep == 0) {
    return Status::InvalidArgument("RotateDeltas: keep must be >= 1");
  }
  StatusOr<std::vector<std::string>> names = env.ListDir(dir);
  if (!names.ok()) return names.status();
  std::vector<std::pair<uint64_t, std::string>> found;
  for (const std::string& name : *names) {
    StatusOr<uint64_t> seq = ParseDeltaSeq(name);
    if (seq.ok()) {
      found.emplace_back(*seq, name);
    } else if (IsTempFileName(name)) {
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
