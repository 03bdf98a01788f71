/**
 * @file
 * The simulator's one diagnostic path: `fatal` reports a
 * user/configuration error by throwing `FatalError`, so callers and
 * tests can catch and assert on it.
 */

#ifndef EDB_SIM_LOGGING_HH
#define EDB_SIM_LOGGING_HH

#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

namespace edb::sim {

/** Error thrown by `fatal` — a user-correctable configuration error. */
class FatalError : public std::runtime_error
{
  public:
    explicit FatalError(const std::string &what)
        : std::runtime_error(what)
    {}
};

namespace detail {

template <typename... Args>
std::string
format(Args &&...args)
{
    std::ostringstream oss;
    (oss << ... << args);
    return oss.str();
}

} // namespace detail

/** Report a user/configuration error; throws FatalError. */
template <typename... Args>
[[noreturn]] void
fatal(Args &&...args)
{
    throw FatalError(detail::format(std::forward<Args>(args)...));
}

} // namespace edb::sim

#endif // EDB_SIM_LOGGING_HH
