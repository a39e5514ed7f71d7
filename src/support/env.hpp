// The one reader of the HMPI_* environment knobs (README "Environment
// knobs" lists them).
//
// Every knob follows one rule. An unset or empty variable keeps the
// configured value (`fallback`). A flag accepts 1|0|true|false|yes|no|on|off
// and a name one entry of its fixed list, both in any case. A number must
// parse whole, be finite and lie in the knob's range. Anything else throws
// InvalidArgument: NAME='value' is not accepted (accepted: ...).
#pragma once

#include <span>
#include <string>

namespace hmpi::support::env {

/// Flag knob: 1|true|yes|on or 0|false|no|off.
bool flag(const char* name, bool fallback);

/// Name knob: the index in `names` (lower case) of the value.
int choice(const char* name, std::span<const char* const> names, int fallback);

/// Whole decimal integer knob in [min, max].
long long integer(const char* name, long long min, long long max,
                  long long fallback);

/// Finite decimal number knob, >= 0 (> 0 when `positive`).
double number(const char* name, bool positive, double fallback);

/// Free-text knob (a file path), taken as given.
std::string text(const char* name, const std::string& fallback);

}  // namespace hmpi::support::env
