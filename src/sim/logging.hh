/**
 * @file
 * Error and status reporting helpers, following the gem5 convention:
 * panic() for simulator bugs, fatal() for user/configuration errors,
 * warn()/inform() for non-fatal status.
 *
 * Both fatal() and panic() die via abort() after (a) prefixing the
 * message with the current simulation tick and node when a context has
 * been registered, and (b) replaying any registered post-mortem dumpers
 * (the machine's outstanding misses, oracle violations and trace
 * rings) to stderr — so a death mid-simulation is never blind.
 *
 * Context and dumpers are thread-local: sweep-runner workers each run a
 * whole machine on one thread, so each worker sees only its own
 * machine's context.
 */

#ifndef FLASHSIM_SIM_LOGGING_HH_
#define FLASHSIM_SIM_LOGGING_HH_

#include <cstdarg>
#include <functional>
#include <ostream>
#include <string>

#include "sim/types.hh"

namespace flashsim
{

/** Print a formatted message and abort(); use for internal invariant
 *  violations (simulator bugs). */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Print a formatted message and abort(); use for configuration errors
 *  and unrecoverable simulation conditions. */
[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Print a warning to stderr; simulation continues. */
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Print an informational message to stderr; simulation continues. */
void inform(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Format a printf-style message into a std::string. */
std::string vstrprintf(const char *fmt, std::va_list args);

// -- Simulation context (thread-local) --------------------------------------

/** Register the current thread's simulation clock; fatal()/panic()
 *  prefix their message with its value. Empty function clears it. */
void setLogTickSource(std::function<Tick()> fn);

/** Set the node whose handler is currently executing on this thread
 *  (kInvalidNode = none); fatal()/panic() report it. */
void setLogNode(NodeId node);

// -- Post-mortem dumpers (thread-local) -------------------------------------

/**
 * Register a dumper replayed to stderr when this thread dies in
 * fatal()/panic(). Returns a token for unregisterPostMortem().
 */
int registerPostMortem(std::function<void(std::ostream &)> fn);

void unregisterPostMortem(int token);

} // namespace flashsim

#endif // FLASHSIM_SIM_LOGGING_HH_
