#include "src/tde/storage/column.h"

#include <algorithm>
#include <cstring>

namespace vizq::tde {

const char* EncodingToString(Encoding e) {
  switch (e) {
    case Encoding::kPlain: return "plain";
    case Encoding::kDictionary: return "dictionary";
    case Encoding::kRle: return "rle";
    case Encoding::kDelta: return "delta";
  }
  return "unknown";
}

int64_t StringDictionary::Intern(std::string_view s) {
  std::string key = CollationKey(s, collation_);
  auto it = index_.find(key);
  if (it != index_.end()) return it->second;
  int64_t token = static_cast<int64_t>(values_.size());
  values_.emplace_back(s);
  index_.emplace(std::move(key), token);
  return token;
}

int64_t StringDictionary::Find(std::string_view s) const {
  std::string key = CollationKey(s, collation_);
  auto it = index_.find(key);
  return it == index_.end() ? -1 : it->second;
}

namespace {

// Finds the run containing `row` by binary search on run starts.
const RleRun* FindRun(const std::vector<RleRun>& runs, int64_t row) {
  int64_t lo = 0, hi = static_cast<int64_t>(runs.size()) - 1;
  while (lo <= hi) {
    int64_t mid = (lo + hi) / 2;
    const RleRun& r = runs[mid];
    if (row < r.start) {
      hi = mid - 1;
    } else if (row >= r.start + r.count) {
      lo = mid + 1;
    } else {
      return &r;
    }
  }
  return nullptr;
}

inline double BitsToDouble(int64_t bits) {
  double d;
  std::memcpy(&d, &bits, sizeof(d));
  return d;
}

}  // namespace

Value Column::GetValue(int64_t row) const {
  if (IsNull(row)) return Value::Null();
  // Resolve the raw int payload for fixed-width encodings.
  auto raw_int = [&](int64_t r) -> int64_t {
    switch (encoding_) {
      case Encoding::kPlain:
      case Encoding::kDictionary:
        return ints_[r];
      case Encoding::kRle: {
        const RleRun* run = FindRun(runs_, r);
        return run ? run->value : 0;
      }
      case Encoding::kDelta: {
        int64_t v = delta_base_;
        for (int64_t i = 0; i < r; ++i) v += deltas_[i];
        return v;
      }
    }
    return 0;
  };

  switch (type_.kind) {
    case TypeKind::kBool:
      return Value(raw_int(row) != 0);
    case TypeKind::kInt64:
    case TypeKind::kDate:
      return Value(raw_int(row));
    case TypeKind::kFloat64:
      if (encoding_ == Encoding::kPlain) return Value(doubles_[row]);
      return Value(BitsToDouble(raw_int(row)));
    case TypeKind::kString:
      if (dictionary_ != nullptr) return Value(dictionary_->value(raw_int(row)));
      return Value(strings_[row]);
  }
  return Value::Null();
}

void Column::CopyNullMask(int64_t start, int64_t count,
                          std::vector<uint8_t>* null_mask) const {
  if (null_mask == nullptr) return;
  if (nulls_.empty()) {
    null_mask->assign(count, 0);
    return;
  }
  null_mask->assign(nulls_.begin() + start, nulls_.begin() + start + count);
}

void Column::DecodeInts(int64_t start, int64_t count,
                        std::vector<int64_t>* out,
                        std::vector<uint8_t>* null_mask) const {
  CopyNullMask(start, count, null_mask);
  GatherInts({RowRange{start, count}}, out);
}

void Column::DecodeDoubles(int64_t start, int64_t count,
                           std::vector<double>* out,
                           std::vector<uint8_t>* null_mask) const {
  CopyNullMask(start, count, null_mask);
  GatherDoubles({RowRange{start, count}}, out);
}

void Column::DecodeStrings(int64_t start, int64_t count,
                           std::vector<std::string>* out,
                           std::vector<uint8_t>* null_mask) const {
  out->resize(count);
  CopyNullMask(start, count, null_mask);
  if (dictionary_ != nullptr) {
    std::vector<int64_t> tokens;
    DecodeInts(start, count, &tokens, nullptr);
    for (int64_t i = 0; i < count; ++i) {
      if (nulls_.empty() || nulls_[start + i] == 0) {
        (*out)[i] = dictionary_->value(tokens[i]);
      }
    }
    return;
  }
  for (int64_t i = 0; i < count; ++i) (*out)[i] = strings_[start + i];
}

void Column::DecodeNulls(int64_t start, int64_t count,
                         std::vector<uint8_t>* out) const {
  GatherNulls({RowRange{start, count}}, out);
}

int64_t Column::EmitRuns(int64_t start, int64_t count,
                         std::vector<RleRun>* out) const {
  const size_t before = out->size();
  GatherRuns({RowRange{start, count}}, out);
  return static_cast<int64_t>(out->size() - before);
}

size_t Column::RunFrom(size_t from, int64_t row) const {
  const size_t n = runs_.size();
  size_t lo = from;
  size_t step = 1;
  size_t hi = lo + 1;
  while (hi < n && runs_[hi].start <= row) {
    lo = hi;
    step *= 2;
    hi = lo + step;
  }
  hi = std::min(hi, n);
  // The run holding `row` is the last one in [lo, hi) starting at or
  // before it.
  while (hi - lo > 1) {
    const size_t mid = lo + (hi - lo) / 2;
    if (runs_[mid].start <= row) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

namespace {

int64_t TotalRows(const std::vector<RowRange>& ranges) {
  int64_t total = 0;
  for (const RowRange& r : ranges) total += r.count;
  return total;
}

}  // namespace

void Column::GatherInts(const std::vector<RowRange>& ranges,
                        std::vector<int64_t>* out,
                        DecodeCursor* cursor) const {
  out->resize(TotalRows(ranges));
  int64_t* o = out->data();
  switch (encoding_) {
    case Encoding::kPlain:
    case Encoding::kDictionary:
      for (const RowRange& r : ranges) {
        std::memcpy(o, ints_.data() + r.start, r.count * sizeof(int64_t));
        o += r.count;
      }
      return;
    case Encoding::kRle: {
      size_t run = 0;
      for (const RowRange& r : ranges) {
        if (runs_.empty()) break;
        run = RunFrom(run, r.start);
        int64_t row = r.start;
        const int64_t end = r.start + r.count;
        while (row < end && run < runs_.size()) {
          const RleRun& x = runs_[run];
          const int64_t to = std::min(end, x.start + x.count);
          std::fill(o, o + (to - row), x.value);
          o += to - row;
          row = to;
          if (row < end) ++run;
        }
      }
      return;
    }
    case Encoding::kDelta: {
      if (ranges.empty()) return;
      // v is the value of `row`; ranges only move forward, and so does a
      // cursor left at or before the first of them.
      int64_t row = 0;
      int64_t v = delta_base_;
      if (cursor != nullptr && cursor->next_row > 0 &&
          cursor->next_row <= ranges.front().start) {
        row = cursor->next_row;
        v = cursor->acc;
      }
      const int64_t deltas = static_cast<int64_t>(deltas_.size());
      for (const RowRange& r : ranges) {
        for (; row < r.start; ++row) {
          if (row < deltas) v += deltas_[row];
        }
        for (int64_t i = 0; i < r.count; ++i, ++row) {
          *o++ = v;
          if (row < deltas) v += deltas_[row];
        }
      }
      if (cursor != nullptr) *cursor = DecodeCursor{row, v};
      return;
    }
  }
}

void Column::GatherDoubles(const std::vector<RowRange>& ranges,
                           std::vector<double>* out) const {
  if (encoding_ == Encoding::kPlain) {
    out->resize(TotalRows(ranges));
    double* o = out->data();
    for (const RowRange& r : ranges) {
      std::memcpy(o, doubles_.data() + r.start, r.count * sizeof(double));
      o += r.count;
    }
    return;
  }
  // RLE/delta doubles travel through the int payload as bit patterns.
  std::vector<int64_t> raw;
  GatherInts(ranges, &raw);
  out->resize(raw.size());
  for (size_t i = 0; i < raw.size(); ++i) (*out)[i] = BitsToDouble(raw[i]);
}

void Column::GatherNulls(const std::vector<RowRange>& ranges,
                         std::vector<uint8_t>* out) const {
  out->clear();
  if (nulls_.empty()) return;
  uint8_t any = 0;
  for (const RowRange& r : ranges) {
    for (int64_t i = 0; i < r.count; ++i) any |= nulls_[r.start + i];
  }
  if (any == 0) return;
  out->reserve(TotalRows(ranges));
  for (const RowRange& r : ranges) {
    out->insert(out->end(), nulls_.begin() + r.start,
                nulls_.begin() + r.start + r.count);
  }
}

void Column::GatherRuns(const std::vector<RowRange>& ranges,
                        std::vector<RleRun>* out) const {
  size_t run = 0;
  int64_t at = 0;  // batch offset of the current range
  for (const RowRange& r : ranges) {
    if (runs_.empty()) break;
    run = RunFrom(run, r.start);
    int64_t row = r.start;
    const int64_t end = r.start + r.count;
    while (row < end && run < runs_.size()) {
      const RleRun& x = runs_[run];
      const int64_t to = std::min(end, x.start + x.count);
      out->push_back(RleRun{x.value, at + (row - r.start), to - row});
      row = to;
      if (row < end) ++run;
    }
    at += r.count;
  }
}

int Column::CompareRows(int64_t a, int64_t b) const {
  if (a == b) return 0;
  bool an = IsNull(a);
  bool bn = IsNull(b);
  if (an || bn) {
    if (an && bn) return 0;
    return an ? -1 : 1;
  }
  auto compare_payload = [&](int64_t x, int64_t y) -> int {
    if (type_.kind == TypeKind::kFloat64) {
      double dx = BitsToDouble(x), dy = BitsToDouble(y);
      if (dx < dy) return -1;
      if (dx > dy) return 1;
      return 0;
    }
    if (dictionary_ != nullptr) {
      // Equal tokens intern to the same collation key; unequal tokens need
      // a collated compare (token order is first-appearance, not sorted).
      if (x == y) return 0;
      return CollatedCompare(dictionary_->value(x), dictionary_->value(y),
                             type_.collation);
    }
    if (x < y) return -1;
    if (x > y) return 1;
    return 0;
  };
  switch (encoding_) {
    case Encoding::kPlain:
      if (type_.kind == TypeKind::kString) {
        return CollatedCompare(strings_[a], strings_[b], type_.collation);
      }
      if (type_.kind == TypeKind::kFloat64) {
        if (doubles_[a] < doubles_[b]) return -1;
        if (doubles_[a] > doubles_[b]) return 1;
        return 0;
      }
      return compare_payload(ints_[a], ints_[b]);
    case Encoding::kDictionary:
      return compare_payload(ints_[a], ints_[b]);
    case Encoding::kRle: {
      const RleRun* ra = FindRun(runs_, a);
      const RleRun* rb = FindRun(runs_, b);
      if (ra == rb) return 0;  // same run => same value
      return compare_payload(ra != nullptr ? ra->value : 0,
                             rb != nullptr ? rb->value : 0);
    }
    case Encoding::kDelta: {
      // Delta columns are sorted ascending and null-free by construction:
      // rows a < b are equal iff every delta in (a, b] is zero.
      int64_t lo = std::min(a, b), hi = std::max(a, b);
      for (int64_t i = lo; i < hi; ++i) {
        if (deltas_[i] != 0) return a < b ? -1 : 1;
      }
      return 0;
    }
  }
  return 0;
}

int64_t Column::ApproxBytes() const {
  int64_t bytes = 64 + static_cast<int64_t>(nulls_.size());
  bytes += static_cast<int64_t>(ints_.size()) * 8;
  bytes += static_cast<int64_t>(doubles_.size()) * 8;
  bytes += static_cast<int64_t>(runs_.size()) * 24;
  bytes += static_cast<int64_t>(deltas_.size()) * 4;
  for (const std::string& s : strings_) bytes += 24 + static_cast<int64_t>(s.size());
  if (dictionary_ != nullptr) {
    for (const std::string& s : dictionary_->values()) {
      bytes += 24 + static_cast<int64_t>(s.size());
    }
  }
  return bytes;
}

}  // namespace vizq::tde
