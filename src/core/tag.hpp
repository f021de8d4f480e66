// Routing-tag values and their 3-bit hardware encoding (paper Table 1).
//
// A link in a binary splitting network carries one of four tag values
// (Section 3):
//   0  — every destination of this input lies in the upper output half
//   1  — every destination lies in the lower half
//   α  — destinations in both halves (the connection must be split)
//   ε  — empty destination set (no message)
// The quasisorting network additionally distinguishes dummy zeros/ones
// ε0 / ε1 assigned to ε lines by the ε-dividing algorithm (Section 5.2).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string_view>

namespace brsmn {

enum class Tag : std::uint8_t {
  Zero = 0,   ///< all destinations in the upper half
  One = 1,    ///< all destinations in the lower half
  Alpha = 2,  ///< destinations in both halves: split required
  Eps = 3,    ///< empty — the line carries no message
  Eps0 = 4,   ///< ε designated as a dummy 0 by the ε-dividing algorithm
  Eps1 = 5,   ///< ε designated as a dummy 1 by the ε-dividing algorithm
};

/// 3-bit encoding b0 b1 b2 of a tag value per Table 1. A plain ε encodes
/// as 110 (the don't-care bit X resolved to 0).
std::uint8_t encode(Tag t);

/// Inverse of encode(). 111 decodes to Eps1 and 110 to Eps0; use
/// `collapse_eps` to fold both back to plain Eps.
Tag decode(std::uint8_t bits);

/// Folds Eps0/Eps1 back to Eps; other values unchanged.
Tag collapse_eps(Tag t);

/// True for Eps, Eps0 and Eps1 — the line carries no message.
constexpr bool is_empty(Tag t) {
  return t == Tag::Eps || t == Tag::Eps0 || t == Tag::Eps1;
}

/// True for Zero and One: a single-destination-half ("χ") value. Used by
/// the scatter network, which treats 0 and 1 uniformly (Section 5.1).
bool is_chi(Tag t);

/// Hardware counting predicates from Section 7.2: with encoding b0 b1 b2,
///   α is counted by b0 AND NOT b1,
///   ε is counted by b0 AND b1,
///   1 (real or dummy) is counted by b2.
bool counts_as_alpha(std::uint8_t bits);
bool counts_as_eps(std::uint8_t bits);
bool counts_as_one(std::uint8_t bits);

/// One-character name: '0', '1', 'a', 'e'; dummies are 'z' (ε0), 'w' (ε1).
char tag_char(Tag t);

/// Parse tag_char()'s alphabet back into a Tag.
Tag tag_from_char(char c);

std::string_view tag_name(Tag t);

std::ostream& operator<<(std::ostream& os, Tag t);

}  // namespace brsmn
