#include "common/parse.h"

#include <charconv>

namespace urr {

namespace {

template <typename T>
Result<T> ParseWhole(const std::string& text, const std::string& what) {
  T value{};
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) {
    return Status::InvalidArgument("bad " + what + ": '" + text + "'");
  }
  return value;
}

}  // namespace

Result<double> ParseDouble(const std::string& text, const std::string& what) {
  return ParseWhole<double>(text, what);
}

Result<int64_t> ParseInt(const std::string& text, const std::string& what) {
  return ParseWhole<int64_t>(text, what);
}

Result<uint64_t> ParseUint(const std::string& text, const std::string& what) {
  return ParseWhole<uint64_t>(text, what);
}

}  // namespace urr
