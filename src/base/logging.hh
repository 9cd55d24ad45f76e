/**
 * @file
 * Status-message and error-reporting helpers, following the gem5
 * panic()/fatal() convention: panic() is for internal invariant
 * violations (bugs in this library) and prints before it aborts;
 * fatal() is for user-caused conditions (bad configuration, bad
 * input files) and only throws std::runtime_error("fatal: <msg>"),
 * so a caller that handles the error prints nothing and every CLI
 * main() prints what() exactly once.
 */

#ifndef DIFFTUNE_BASE_LOGGING_HH
#define DIFFTUNE_BASE_LOGGING_HH

#include <sstream>
#include <string>

namespace difftune
{

namespace detail
{

inline void
fmtAppend(std::ostringstream &os, const char *fmt)
{
    os << fmt;
}

/**
 * Minimal "{}"-substitution formatter. Each "{}" in @p fmt is replaced
 * by the next argument, streamed with operator<<. Extra arguments are
 * appended at the end; extra "{}" are emitted literally.
 */
template <typename T, typename... Args>
void
fmtAppend(std::ostringstream &os, const char *fmt, const T &value,
          Args &&...args)
{
    for (const char *p = fmt; *p; ++p) {
        if (p[0] == '{' && p[1] == '}') {
            os << value;
            fmtAppend(os, p + 2, std::forward<Args>(args)...);
            return;
        }
        os << *p;
    }
    os << ' ' << value;
    fmtAppend(os, "", std::forward<Args>(args)...);
}

} // namespace detail

/** Format a string with "{}" placeholders. */
template <typename... Args>
std::string
fmtStr(const char *fmt, Args &&...args)
{
    std::ostringstream os;
    detail::fmtAppend(os, fmt, std::forward<Args>(args)...);
    return os.str();
}

/** Abort with a message: something that should never happen happened. */
[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);

/** Throw with a message: the user asked for something unsatisfiable. */
[[noreturn]] void fatalImpl(const std::string &msg);

/** Print a warning to stderr; execution continues. */
void warnImpl(const std::string &msg);

/** Print an informational message to stderr; execution continues. */
void informImpl(const std::string &msg);

/**
 * Drop fatal()'s "fatal: " prefix from a caught exception's what()
 * so that re-raising with added context ("checkpoint 'x': {}") does
 * not stutter the prefix.
 */
std::string stripErrorPrefix(const std::string &msg);

/** Enable/disable inform() output (benches silence it). */
void setVerbose(bool verbose);

/** @return whether inform() output is enabled. */
bool verbose();

#define panic(...) \
    ::difftune::panicImpl(__FILE__, __LINE__, ::difftune::fmtStr(__VA_ARGS__))
#define fatal(...) ::difftune::fatalImpl(::difftune::fmtStr(__VA_ARGS__))
#define warn(...) ::difftune::warnImpl(::difftune::fmtStr(__VA_ARGS__))
#define inform(...) ::difftune::informImpl(::difftune::fmtStr(__VA_ARGS__))

/** panic() unless @p cond holds. */
#define panic_if(cond, ...)                                               \
    do {                                                                  \
        if (cond)                                                         \
            panic(__VA_ARGS__);                                           \
    } while (0)

#define fatal_if(cond, ...)                                               \
    do {                                                                  \
        if (cond)                                                         \
            fatal(__VA_ARGS__);                                           \
    } while (0)

} // namespace difftune

#endif // DIFFTUNE_BASE_LOGGING_HH
