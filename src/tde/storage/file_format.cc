#include "src/tde/storage/file_format.h"

#include <algorithm>
#include <fstream>

#include "src/common/binary_io.h"

namespace vizq::tde {

namespace {

constexpr uint32_t kMagic = 0x56514445;  // 'VQDE'
constexpr uint32_t kVersion = 1;

// Smallest encodings, which bound the decoded counts: a schema is a name
// and a table count; a table a name, row count, column count and sort
// count; a column a name, three enum bytes, its size, the stats flag, two
// value tags, two stats, seven 8-byte array counts and fields, and the
// dictionary flag.
constexpr size_t kMinSchemaBytes = 4 + 4;
constexpr size_t kMinTableBytes = 4 + 8 + 4 + 4;
constexpr size_t kMinColumnBytes = 4 + 3 + 8 + 1 + 2 + 2 * 8 + 7 * 8 + 1;

// Reads a count-prefixed array of fixed-width little-endian elements.
template <typename T>
bool GetArray(BinaryReader* r, std::vector<T>* out) {
  uint64_t n;
  if (!r->Count(&n, sizeof(T))) return false;
  out->resize(n);
  return r->Bytes(out->data(), n * sizeof(T));
}

template <typename T>
void PutArray(BinaryWriter* w, const std::vector<T>& v) {
  w->U64(v.size());
  w->Bytes(v.data(), v.size() * sizeof(T));
}

}  // namespace

// Serializes Column internals; a friend of Column.
class ColumnSerializer {
 public:
  static void Pack(const Column& col, BinaryWriter* w) {
    w->U8(static_cast<uint8_t>(col.type_.kind));
    w->U8(static_cast<uint8_t>(col.type_.collation));
    w->U8(static_cast<uint8_t>(col.encoding_));
    w->I64(col.size_);
    // stats
    w->U8(col.stats_.has_min_max ? 1 : 0);
    w->Val(col.stats_.min);
    w->Val(col.stats_.max);
    w->I64(col.stats_.distinct_estimate);
    w->I64(col.stats_.null_count);
    // null mask, then payloads
    PutArray(w, col.nulls_);
    PutArray(w, col.ints_);
    PutArray(w, col.doubles_);
    w->U64(col.strings_.size());
    for (const std::string& s : col.strings_) w->Str(s);
    w->U64(col.runs_.size());
    for (const RleRun& run : col.runs_) {
      w->I64(run.value);
      w->I64(run.start);
      w->I64(run.count);
    }
    w->I64(col.delta_base_);
    PutArray(w, col.deltas_);
    // dictionary
    if (col.dictionary_ != nullptr) {
      w->U8(1);
      w->U8(static_cast<uint8_t>(col.dictionary_->collation()));
      w->U64(col.dictionary_->values().size());
      for (const std::string& s : col.dictionary_->values()) w->Str(s);
    } else {
      w->U8(0);
    }
  }

  static StatusOr<std::shared_ptr<Column>> Unpack(BinaryReader* r) {
    auto col = std::make_shared<Column>();
    if (!r->Enum(&col->type_.kind, kLastTypeKind) ||
        !r->Enum(&col->type_.collation, kLastCollation) ||
        !r->Enum(&col->encoding_, kLastEncoding)) {
      return DataLoss("bad column header");
    }
    if (!r->I64(&col->size_)) return DataLoss("column size truncated");
    uint8_t has_mm;
    if (!r->U8(&has_mm)) return DataLoss("column stats truncated");
    col->stats_.has_min_max = has_mm != 0;
    if (!r->Val(&col->stats_.min) || !r->Val(&col->stats_.max) ||
        !r->I64(&col->stats_.distinct_estimate) ||
        !r->I64(&col->stats_.null_count)) {
      return DataLoss("column stats truncated");
    }
    if (!GetArray(r, &col->nulls_)) return DataLoss("null mask truncated");
    if (!GetArray(r, &col->ints_)) return DataLoss("int payload truncated");
    if (!GetArray(r, &col->doubles_)) {
      return DataLoss("double payload truncated");
    }
    uint64_t n;
    if (!r->Count(&n, 4)) return DataLoss("string payload truncated");
    col->strings_.resize(n);
    for (std::string& s : col->strings_) {
      if (!r->Str(&s)) return DataLoss("string payload truncated");
    }
    if (!r->Count(&n, 24)) return DataLoss("runs truncated");
    col->runs_.resize(n);
    for (RleRun& run : col->runs_) {
      if (!r->I64(&run.value) || !r->I64(&run.start) ||
          !r->I64(&run.count)) {
        return DataLoss("runs truncated");
      }
    }
    if (!r->I64(&col->delta_base_) || !GetArray(r, &col->deltas_)) {
      return DataLoss("delta truncated");
    }
    uint8_t has_dict;
    if (!r->U8(&has_dict)) return DataLoss("dictionary flag truncated");
    if (has_dict != 0) {
      Collation dict_collation;
      uint64_t entries;
      if (!r->Enum(&dict_collation, kLastCollation) ||
          !r->Count(&entries, 4)) {
        return DataLoss("bad dictionary header");
      }
      auto dict = std::make_shared<StringDictionary>(dict_collation);
      for (uint64_t i = 0; i < entries; ++i) {
        std::string s;
        if (!r->Str(&s)) return DataLoss("dictionary truncated");
        dict->Intern(s);
      }
      col->dictionary_ = std::move(dict);
    }
    VIZQ_RETURN_IF_ERROR(Validate(*col));
    return col;
  }

 private:
  // Checks that the decoded payload is the column its header declares, so
  // scans and the dense aggregate (which indexes arrays by token and by
  // value - min) never read outside it: payload lengths match the size,
  // tokens lie below the dictionary size, runs tile [0, size) and every
  // non-null value lies in the stats' [min, max].
  static Status Validate(const Column& col) {
    const int64_t n = col.size_;
    if (n < 0) return DataLoss("negative column size");
    auto sized = [n](size_t len) { return static_cast<int64_t>(len) == n; };
    if (!col.nulls_.empty() && !sized(col.nulls_.size())) {
      return DataLoss("null mask length disagrees with column size");
    }
    const TypeKind kind = col.type_.kind;
    const bool is_string = kind == TypeKind::kString;
    const bool has_dict = col.dictionary_ != nullptr;
    if (has_dict != (is_string && col.encoding_ != Encoding::kPlain)) {
      return DataLoss("dictionary presence disagrees with column encoding");
    }
    const int64_t dict_size = has_dict ? col.dictionary_->size() : 0;
    auto bad_token = [&](int64_t t) {
      return has_dict && (t < 0 || t >= dict_size);
    };
    // Non-null int payload values, for the stats range check below.
    std::vector<int64_t> values;
    auto keep = [&](int64_t row, int64_t v) {
      if (!col.IsNull(row)) values.push_back(v);
    };
    switch (col.encoding_) {
      case Encoding::kPlain:
        if (kind == TypeKind::kFloat64 ? !sized(col.doubles_.size())
            : is_string               ? !sized(col.strings_.size())
                                      : !sized(col.ints_.size())) {
          return DataLoss("plain payload length disagrees with column size");
        }
        if (kind != TypeKind::kFloat64 && !is_string) {
          for (int64_t i = 0; i < n; ++i) keep(i, col.ints_[i]);
        }
        break;
      case Encoding::kDictionary:
        if (!is_string || !sized(col.ints_.size())) {
          return DataLoss("dictionary payload disagrees with column");
        }
        for (int64_t t : col.ints_) {
          if (bad_token(t)) return DataLoss("dictionary token out of range");
        }
        break;
      case Encoding::kRle: {
        int64_t next = 0;
        for (const RleRun& run : col.runs_) {
          if (run.start != next || run.count <= 0 || run.count > n - next) {
            return DataLoss("runs do not tile the column");
          }
          if (bad_token(run.value)) return DataLoss("run token out of range");
          if (kind != TypeKind::kFloat64 && !is_string) {
            keep(run.start, run.value);
          }
          next += run.count;
        }
        if (next != n) return DataLoss("runs do not tile the column");
        break;
      }
      case Encoding::kDelta: {
        if (is_string || kind == TypeKind::kFloat64 ||
            static_cast<int64_t>(col.deltas_.size()) != std::max<int64_t>(0, n - 1)) {
          return DataLoss("delta payload disagrees with column");
        }
        int64_t v = col.delta_base_;
        for (int64_t i = 0; i < n; ++i) {
          keep(i, v);
          if (i + 1 < n && __builtin_add_overflow(v, col.deltas_[i], &v)) {
            return DataLoss("delta payload overflows");
          }
        }
        break;
      }
    }
    if (col.stats_.has_min_max && !values.empty()) {
      const Value& lo = col.stats_.min;
      const Value& hi = col.stats_.max;
      if (!lo.is_int() || !hi.is_int() || lo.int_value() > hi.int_value()) {
        return DataLoss("column stats are not an int range");
      }
      for (int64_t v : values) {
        if (v < lo.int_value() || v > hi.int_value()) {
          return DataLoss("column value outside its stats range");
        }
      }
    }
    return OkStatus();
  }
};

std::string DatabaseSerializer::Pack(const Database& db) {
  BinaryWriter w;
  w.U32(kMagic);
  w.U32(kVersion);
  w.Str(db.name_);
  w.U32(static_cast<uint32_t>(db.schemas_.size()));
  for (const auto& [sname, tables] : db.schemas_) {
    w.Str(sname);
    w.U32(static_cast<uint32_t>(tables.size()));
    for (const auto& [tname, table] : tables) {
      w.Str(tname);
      w.I64(table->num_rows_);
      w.U32(static_cast<uint32_t>(table->schema_.size()));
      for (size_t i = 0; i < table->schema_.size(); ++i) {
        w.Str(table->schema_[i].name);
        ColumnSerializer::Pack(*table->columns_[i], &w);
      }
      w.U32(static_cast<uint32_t>(table->sort_columns_.size()));
      for (int sc : table->sort_columns_) w.U32(static_cast<uint32_t>(sc));
    }
  }
  return w.TakeBytes();
}

StatusOr<std::shared_ptr<Database>> DatabaseSerializer::Unpack(
    const std::string& bytes) {
  BinaryReader r(bytes);
  uint32_t magic, version;
  if (!r.U32(&magic) || magic != kMagic) {
    return DataLoss("not a VizQuery extract file");
  }
  if (!r.U32(&version) || version != kVersion) {
    return DataLoss("unsupported extract version");
  }
  std::string db_name;
  if (!r.Str(&db_name)) return DataLoss("truncated header");
  auto db = std::make_shared<Database>(db_name);
  db->schemas_.clear();
  uint32_t nschemas;
  if (!r.Count(&nschemas, kMinSchemaBytes)) {
    return DataLoss("bad schema count");
  }
  for (uint32_t s = 0; s < nschemas; ++s) {
    std::string sname;
    uint32_t ntables;
    if (!r.Str(&sname) || !r.Count(&ntables, kMinTableBytes)) {
      return DataLoss("bad schema");
    }
    auto& tables = db->schemas_[sname];
    for (uint32_t t = 0; t < ntables; ++t) {
      std::string tname;
      if (!r.Str(&tname)) return DataLoss("truncated table name");
      auto table = std::make_shared<Table>();
      table->name_ = tname;
      if (!r.I64(&table->num_rows_) || table->num_rows_ < 0) {
        return DataLoss("bad row count");
      }
      uint32_t ncols;
      if (!r.Count(&ncols, kMinColumnBytes)) {
        return DataLoss("bad column count");
      }
      for (uint32_t c = 0; c < ncols; ++c) {
        ColumnInfo ci;
        if (!r.Str(&ci.name)) return DataLoss("truncated column name");
        VIZQ_ASSIGN_OR_RETURN(std::shared_ptr<Column> col,
                              ColumnSerializer::Unpack(&r));
        if (col->size() != table->num_rows_) {
          return DataLoss("column size disagrees with table rows");
        }
        ci.type = col->type();
        table->schema_.push_back(std::move(ci));
        table->columns_.push_back(std::move(col));
      }
      uint32_t nsort;
      if (!r.Count(&nsort, 4)) return DataLoss("bad sort metadata");
      for (uint32_t i = 0; i < nsort; ++i) {
        uint32_t sc;
        if (!r.U32(&sc)) return DataLoss("truncated sort metadata");
        if (sc >= ncols) return DataLoss("sort column out of range");
        table->sort_columns_.push_back(static_cast<int>(sc));
      }
      tables.emplace(tname, std::move(table));
    }
  }
  if (!r.AtEnd()) return DataLoss("trailing bytes in extract file");
  return db;
}

Status DatabaseSerializer::PackToFile(const Database& db,
                                      const std::string& path) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) return InvalidArgument("cannot open '" + path + "' for writing");
  std::string bytes = Pack(db);
  f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!f) return Internal("write to '" + path + "' failed");
  return OkStatus();
}

StatusOr<std::shared_ptr<Database>> DatabaseSerializer::UnpackFromFile(
    const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) return NotFound("cannot open '" + path + "'");
  std::string bytes((std::istreambuf_iterator<char>(f)),
                    std::istreambuf_iterator<char>());
  return Unpack(bytes);
}

}  // namespace vizq::tde
