/**
 * @file
 * Implementation of the logging helpers.
 */

#include "base/logging.hh"

#include <cstdlib>
#include <iostream>
#include <stdexcept>

namespace difftune
{

namespace
{
bool verboseFlag = true;
} // namespace

void
panicImpl(const char *file, int line, const std::string &msg)
{
    std::cerr << "panic: " << msg << "\n  at " << file << ":" << line
              << std::endl;
    std::abort();
}

void
fatalImpl(const std::string &msg)
{
    // Throwing (rather than exit(1)) keeps fatal() testable and lets
    // an engine answer a bad request through its future. Nothing is
    // printed here: a caught error must stay quiet, and each CLI
    // main() prints what() once.
    throw std::runtime_error("fatal: " + msg);
}

std::string
stripErrorPrefix(const std::string &msg)
{
    static const std::string prefix = "fatal: ";
    if (msg.rfind(prefix, 0) == 0)
        return msg.substr(prefix.size());
    return msg;
}

void
warnImpl(const std::string &msg)
{
    std::cerr << "warn: " << msg << std::endl;
}

void
informImpl(const std::string &msg)
{
    if (verboseFlag)
        std::cerr << "info: " << msg << std::endl;
}

void
setVerbose(bool verbose)
{
    verboseFlag = verbose;
}

bool
verbose()
{
    return verboseFlag;
}

} // namespace difftune
