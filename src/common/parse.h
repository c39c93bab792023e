// Whole-token number parsing shared by the CSV readers, the environment
// knobs and the command-line tools.
#ifndef URR_COMMON_PARSE_H_
#define URR_COMMON_PARSE_H_

#include <cstdint>
#include <string>

#include "common/result.h"

namespace urr {

/// Parses all of `text` as one number. An empty value, trailing garbage
/// ("12x"), a sign on an unsigned value and overflow are InvalidArgument
/// errors that name `what` and quote `text`.
Result<double> ParseDouble(const std::string& text, const std::string& what);
Result<int64_t> ParseInt(const std::string& text, const std::string& what);
Result<uint64_t> ParseUint(const std::string& text, const std::string& what);

}  // namespace urr

#endif  // URR_COMMON_PARSE_H_
