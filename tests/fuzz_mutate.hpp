#pragma once

// The byte-level mutator behind the fixed-seed parser fuzz runs
// (HttpHeadFuzz in net_http_test.cpp, ObsJsonFuzz in json_test.cpp).

#include <span>
#include <string>
#include <string_view>

#include "rng/rng.hpp"

namespace match::fuzz {

/// Byte-level mutation of `input`: 1–4 edits drawn from flip, insert,
/// erase, truncate, duplicate-a-slice, and splice-a-token (one of
/// `tokens`, the grammar's interesting substrings).
inline std::string mutate(std::string input, rng::Rng& rng,
                          std::span<const std::string_view> tokens) {
  for (std::size_t e = 1 + rng.below(4); e > 0; --e) {
    const std::size_t at = rng.below(input.size() + 1);
    const auto byte = static_cast<char>(rng.below(256));
    switch (rng.below(6)) {
      case 0:
        if (!input.empty()) input[rng.below(input.size())] = byte;
        break;
      case 1:
        input.insert(at, 1, byte);
        break;
      case 2:
        if (at < input.size()) input.erase(at, 1 + rng.below(8));
        break;
      case 3:
        input.resize(at);
        break;
      case 4:
        input.insert(at, input.substr(rng.below(input.size() + 1),
                                      rng.below(16)));
        break;
      default:
        input.insert(at, tokens[rng.below(tokens.size())]);
        break;
    }
  }
  return input;
}

}  // namespace match::fuzz
