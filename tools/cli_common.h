/**
 * @file
 * Shared command-line machinery for the seer tool binaries.
 *
 * seer-opt and seer-corpus both speak the same flag
 * dialect: GNU-style `--flag value` and `--flag=value` are equivalent,
 * a bad number in either spelling reports "bad integer"/"bad number"
 * (never "unknown option"), an integer its field cannot hold and a NaN
 * are rejected, byte counts accept k/m/g suffixes, and a
 * value handed to a boolean flag ("--quiet=1") is a usage error. That
 * contract used to be copy-pasted per binary; this cursor centralizes
 * it so each dispatch loop stays one `if` chain over flag names.
 *
 * Usage:
 *
 *   cli::ArgCursor args("seer-opt", argc, argv);
 *   while (args.nextArg()) {
 *       const std::string &arg = args.arg();
 *       if (arg == "--func")
 *           options.func = args.value();
 *       else if (arg == "--jobs")
 *           options.jobs = args.positiveValue<unsigned>("workers");
 *       else if (arg == "--quiet")
 *           options.quiet = true;
 *       else
 *           ... positional / unknown ...
 *       if (!args.endArg())   // bad value or leftover "--quiet=1"
 *           return false;
 *   }
 */
#ifndef SEER_TOOLS_CLI_COMMON_H_
#define SEER_TOOLS_CLI_COMMON_H_

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace seer::core {
struct SeerOptions;
}

namespace seer::cli {

/**
 * A one-pass cursor over argv. Each nextArg() advances to the next
 * argument and splits any inline `=value`; the value/intValue/...
 * accessors consume the inline value or the following argument, and
 * report uniform diagnostics ("<prog>: bad integer 'x' for --flag")
 * on stderr. endArg() closes the per-argument protocol: it rejects an
 * unconsumed inline value and reports whether anything failed.
 */
class ArgCursor
{
  public:
    ArgCursor(std::string prog, int argc, char **argv);

    /** Advance to the next argument; false at the end. */
    bool nextArg();

    /** The current flag name, inline value already split off. */
    const std::string &arg() const { return arg_; }

    /** True when the current argument failed validation. */
    bool failed() const { return bad_value_; }

    /**
     * Close out the current argument: a leftover inline value (a
     * boolean flag spelled "--flag=x") is a usage error. Returns
     * false when this argument failed for any reason.
     */
    bool endArg();

    /** Report "<prog>: <message>" and mark the argument failed. */
    void fail(const std::string &message);

    /** The raw value: inline `=value` or the next argument. */
    std::string value();
    /**
     * A whole number that `T` can hold: "bad integer" when it is not
     * a whole int64, "<arg> must be >= <min>" / "<= <max>" when `T`
     * cannot hold it (so a flag never wraps or narrows silently).
     */
    template <typename T = int64_t> T intValue();
    /** A whole, non-NaN double ("bad number" otherwise). */
    double doubleValue();
    /**
     * A byte count with optional k/m/g suffix ("bad byte count"
     * otherwise, also when it overflows 64 bits). Returns nullopt on
     * failure.
     */
    std::optional<uint64_t> byteValue();
    /** intValue<T>(), additionally requiring >= 1 ("<arg> must be
     *  >= 1 (<what>)" otherwise). */
    template <typename T> T positiveValue(const char *what);

  private:
    /** The value as a whole int64 ("bad integer" otherwise). */
    int64_t wholeValue();
    /** `parsed` as a `T`, or a failed argument when T cannot hold it. */
    template <typename T> T narrow(int64_t parsed);

    std::string prog_;
    std::vector<std::string> args_;
    size_t index_ = 0;
    std::string arg_;
    std::optional<std::string> inline_value_;
    bool bad_value_ = false;
};

template <typename T>
T
ArgCursor::narrow(int64_t parsed)
{
    using Limits = std::numeric_limits<T>;
    if (bad_value_)
        return T{};
    if (std::cmp_less(parsed, Limits::min()))
        fail(arg_ + " must be >= " + std::to_string(Limits::min()));
    else if (std::cmp_greater(parsed, Limits::max()))
        fail(arg_ + " must be <= " + std::to_string(Limits::max()));
    else
        return static_cast<T>(parsed);
    return T{};
}

template <typename T>
T
ArgCursor::intValue()
{
    return narrow<T>(wholeValue());
}

template <typename T>
T
ArgCursor::positiveValue(const char *what)
{
    int64_t parsed = wholeValue();
    if (!bad_value_ && parsed < 1) {
        fail(arg_ + " must be >= 1 (" + what + ")");
        return T{};
    }
    return narrow<T>(parsed);
}

/** Split a comma-separated list, dropping empty pieces. */
std::vector<std::string> splitList(const std::string &text);

/**
 * Handle the proposal-scheduler flags shared by seer-opt and
 * seer-corpus: --schedule (exhaustive | bandit), --eval-budget
 * (fraction in (0, 1]) and --schedule-seed. Returns true when `arg`
 * was one of them (consumed — check args.endArg() as usual); false
 * leaves the cursor untouched for the caller's own dispatch chain.
 */
bool handleScheduleFlag(ArgCursor &args, const std::string &arg,
                        core::SeerOptions &seer);

/** The usage text of the shared scheduler flags (one block, aligned
 *  with each binary's two-space flag column). */
const char *scheduleFlagsUsage();

} // namespace seer::cli

#endif // SEER_TOOLS_CLI_COMMON_H_
