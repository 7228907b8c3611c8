// Shared environment-variable parsing for the runtime knobs
// (CCOVID_SIMD, CCOVID_PRECISION, CCOVID_COLLECTIVE, ...).
//
// Every knob goes through env_choice() so that an unknown value warns
// ONCE on stderr — naming the variable, the offending value, the
// accepted spellings, and the fallback actually used — instead of
// silently falling back. A typo'd CCOVID_PRECISION=pf16 that silently
// ran fp32 would invalidate a benchmark without anyone noticing; the
// warning is the fix.
#pragma once

#include <optional>
#include <string>
#include <vector>

namespace ccovid::env {

/// Raw getenv as an optional (nullopt when unset).
std::optional<std::string> get(const char* name);

/// Lowercased copy (ASCII) — knob values are case-insensitive.
std::string lower(std::string s);

/// Reads `name` and matches its lowercased value against `allowed`.
/// Returns the matched spelling; nullopt when the variable is unset OR
/// set to something unknown. The unknown case prints one stderr
/// warning of the form
///   ccovid: NAME: unknown value 'V' (want a|b|c); using FALLBACK
/// so the caller can apply its default without a second message.
std::optional<std::string> choice(const char* name,
                                  const std::vector<std::string>& allowed,
                                  const char* fallback_desc);

}  // namespace ccovid::env
