#include "io/text.h"

#include <charconv>
#include <istream>

namespace lwm::io {

namespace {

constexpr bool is_blank(char c) { return c == ' ' || c == '\t'; }

template <typename T>
std::optional<T> from_chars_whole(std::string_view tok) {
  // std::from_chars already rejects leading whitespace and '+'; the
  // extra checks enforce "whole token consumed" ("3junk", "1/2") and an
  // explicit empty-token failure ("keep=3/" yields an empty den field).
  if (tok.empty()) return std::nullopt;
  T value{};
  const char* end = tok.data() + tok.size();
  const auto [ptr, ec] = std::from_chars(tok.data(), end, value);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return value;
}

}  // namespace

LineCursor::LineCursor(std::istream& is, const StreamLimits& limits)
    : is_(&is), limits_(limits) {
  // A stream that failed before the first read (an ifstream that did not
  // open) is an error, not an empty input.
  if (!is) error_ = Diagnostic{"", 0, 0, "cannot open stream"};
  window_.reserve(limits_.chunk_bytes);
}

bool LineCursor::refill() {
  if (eof_) return false;
  // Compact: drop consumed bytes so the window holds at most the current
  // partial line plus one chunk.
  if (pos_ > 0) {
    window_.erase(0, pos_);
    pos_ = 0;
  }
  const std::size_t old = window_.size();
  window_.resize(old + limits_.chunk_bytes);
  is_->read(window_.data() + old,
            static_cast<std::streamsize>(limits_.chunk_bytes));
  const std::size_t got = static_cast<std::size_t>(is_->gcount());
  window_.resize(old + got);
  if (got < limits_.chunk_bytes) {
    eof_ = true;
    if (is_->bad()) {
      error_ = Diagnostic{"", lineno_ + 1, 0, "read error"};
      return false;
    }
  }
  return got > 0;
}

std::optional<std::string_view> LineCursor::next() {
  if (error_) return std::nullopt;
  std::size_t nl;
  while ((nl = buffer().find('\n', pos_)) == std::string_view::npos) {
    if (is_ == nullptr) break;  // text source: the tail is the final line
    if (window_.size() - pos_ > limits_.max_line_bytes) {
      error_ = Diagnostic{"", lineno_ + 1, 0,
                          "line exceeds " +
                              std::to_string(limits_.max_line_bytes) +
                              "-byte limit"};
      return std::nullopt;
    }
    if (!refill()) {
      if (error_) return std::nullopt;
      break;  // end of input: the remaining tail is the final line
    }
  }
  const std::string_view buf = buffer();
  std::string_view line;
  if (nl == std::string_view::npos) {
    if (pos_ >= buf.size()) return std::nullopt;
    line = buf.substr(pos_);
    pos_ = buf.size();
  } else {
    line = buf.substr(pos_, nl - pos_);
    pos_ = nl + 1;
  }
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  ++lineno_;
  return line;
}

std::optional<Token> LineLexer::next() {
  while (pos_ < line_.size() && is_blank(line_[pos_])) ++pos_;
  if (pos_ >= line_.size()) return std::nullopt;
  const std::size_t start = pos_;
  while (pos_ < line_.size() && !is_blank(line_[pos_])) ++pos_;
  return Token{line_.substr(start, pos_ - start), static_cast<int>(start) + 1};
}

bool LineLexer::at_end() const {
  for (std::size_t i = pos_; i < line_.size(); ++i) {
    if (!is_blank(line_[i])) return false;
  }
  return true;
}

std::optional<int> to_int(std::string_view tok) {
  return from_chars_whole<int>(tok);
}

std::optional<std::uint32_t> to_u32(std::string_view tok) {
  // from_chars<uint32_t> accepts no '-', so "-1" fails rather than wraps.
  return from_chars_whole<std::uint32_t>(tok);
}

std::optional<double> to_double(std::string_view tok) {
  auto v = from_chars_whole<double>(tok);
  // Reject non-finite spellings ("inf", "nan"): no artifact field wants
  // them and they poison downstream arithmetic silently.
  if (v && !(*v - *v == 0.0)) return std::nullopt;
  return v;
}

}  // namespace lwm::io
