#include "core/tag.hpp"

#include <ostream>

#include "common/contracts.hpp"

namespace brsmn {

std::uint8_t encode(Tag t) {
  // Table 1: tag -> b0 b1 b2 (b0 is the most significant of the 3 bits).
  switch (t) {
    case Tag::Zero: return 0b000;
    case Tag::One: return 0b001;
    case Tag::Alpha: return 0b100;
    case Tag::Eps: return 0b110;
    case Tag::Eps0: return 0b110;
    case Tag::Eps1: return 0b111;
  }
  BRSMN_ENSURES_MSG(false, "invalid tag");
  return 0;
}

Tag decode(std::uint8_t bits) {
  switch (bits) {
    case 0b000: return Tag::Zero;
    case 0b001: return Tag::One;
    case 0b100: return Tag::Alpha;
    case 0b110: return Tag::Eps0;
    case 0b111: return Tag::Eps1;
    default: break;
  }
  BRSMN_EXPECTS_MSG(false, "invalid tag encoding");
  return Tag::Eps;
}

Tag collapse_eps(Tag t) {
  return (t == Tag::Eps0 || t == Tag::Eps1) ? Tag::Eps : t;
}

bool is_chi(Tag t) { return t == Tag::Zero || t == Tag::One; }

bool counts_as_alpha(std::uint8_t bits) {
  const bool b0 = bits & 0b100, b1 = bits & 0b010;
  return b0 && !b1;
}

bool counts_as_eps(std::uint8_t bits) {
  const bool b0 = bits & 0b100, b1 = bits & 0b010;
  return b0 && b1;
}

bool counts_as_one(std::uint8_t bits) { return bits & 0b001; }

char tag_char(Tag t) {
  switch (t) {
    case Tag::Zero: return '0';
    case Tag::One: return '1';
    case Tag::Alpha: return 'a';
    case Tag::Eps: return 'e';
    case Tag::Eps0: return 'z';
    case Tag::Eps1: return 'w';
  }
  return '?';
}

Tag tag_from_char(char c) {
  switch (c) {
    case '0': return Tag::Zero;
    case '1': return Tag::One;
    case 'a': return Tag::Alpha;
    case 'e': return Tag::Eps;
    case 'z': return Tag::Eps0;
    case 'w': return Tag::Eps1;
    default: break;
  }
  BRSMN_EXPECTS_MSG(false, "invalid tag character");
  return Tag::Eps;
}

std::string_view tag_name(Tag t) {
  switch (t) {
    case Tag::Zero: return "0";
    case Tag::One: return "1";
    case Tag::Alpha: return "alpha";
    case Tag::Eps: return "eps";
    case Tag::Eps0: return "eps0";
    case Tag::Eps1: return "eps1";
  }
  return "?";
}

std::ostream& operator<<(std::ostream& os, Tag t) { return os << tag_name(t); }

}  // namespace brsmn
