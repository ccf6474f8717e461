// Column-level string collation.
//
// The TDE supports column-level collated strings (§4.1.1 of the paper):
// string comparisons, grouping and ordering honor the collation declared on
// the column, so behaviour matches what a live database connection with the
// same collation would produce.

#ifndef VIZQUERY_COMMON_COLLATION_H_
#define VIZQUERY_COMMON_COLLATION_H_

#include <cstdint>
#include <string>
#include <string_view>

namespace vizq {

// The collations this engine implements. kBinary is plain byte ordering;
// kCaseInsensitive folds ASCII case before comparing (sufficient for the
// synthetic workloads; the interface is where an ICU-backed collation would
// plug in).
enum class Collation : uint8_t {
  kBinary = 0,
  kCaseInsensitive = 1,
};
inline constexpr Collation kLastCollation = Collation::kCaseInsensitive;

const char* CollationToString(Collation c);

// Three-way comparison of `a` and `b` under `c`: negative, zero or positive.
int CollatedCompare(std::string_view a, std::string_view b, Collation c);

// Equality under `c`.
bool CollatedEquals(std::string_view a, std::string_view b, Collation c);

// Hash consistent with CollatedEquals: two strings equal under `c` hash to
// the same value.
uint64_t CollatedHash(std::string_view s, Collation c);

// Returns the canonical key of `s` under `c` — a string such that two
// inputs equal under `c` have identical keys (identity for kBinary,
// ASCII-lowercased for kCaseInsensitive).
std::string CollationKey(std::string_view s, Collation c);

}  // namespace vizq

#endif  // VIZQUERY_COMMON_COLLATION_H_
