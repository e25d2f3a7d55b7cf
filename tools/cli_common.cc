#include "tools/cli_common.h"

#include <cctype>
#include <cmath>
#include <iostream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "core/seer.h"

namespace seer::cli {

ArgCursor::ArgCursor(std::string prog, int argc, char **argv)
    : prog_(std::move(prog)), args_(argv + 1, argv + argc)
{
}

bool
ArgCursor::nextArg()
{
    if (index_ >= args_.size())
        return false;
    arg_ = args_[index_++];
    inline_value_.reset();
    bad_value_ = false;
    // GNU-style --flag=value: split so both spellings hit the same
    // validation (a bad number in either reports "bad number", not
    // "unknown option").
    if (arg_.size() > 2 && arg_[0] == '-' && arg_[1] == '-') {
        size_t eq = arg_.find('=');
        if (eq != std::string::npos) {
            inline_value_ = arg_.substr(eq + 1);
            arg_.resize(eq);
        }
    }
    return true;
}

bool
ArgCursor::endArg()
{
    if (bad_value_)
        return false;
    if (inline_value_) {
        std::cerr << prog_ << ": option " << arg_
                  << " does not take a value\n";
        bad_value_ = true;
        return false;
    }
    return true;
}

void
ArgCursor::fail(const std::string &message)
{
    std::cerr << prog_ << ": " << message << "\n";
    bad_value_ = true;
}

std::string
ArgCursor::value()
{
    if (inline_value_) {
        std::string value = *inline_value_;
        inline_value_.reset();
        return value;
    }
    if (index_ >= args_.size()) {
        std::cerr << prog_ << ": missing value for " << arg_ << "\n";
        bad_value_ = true;
        return "";
    }
    return args_[index_++];
}

int64_t
ArgCursor::wholeValue()
{
    std::string text = value();
    if (bad_value_)
        return 0;
    try {
        size_t used = 0;
        int64_t parsed = std::stoll(text, &used);
        if (used != text.size())
            throw std::invalid_argument(text);
        return parsed;
    } catch (const std::exception &) {
        std::cerr << prog_ << ": bad integer '" << text << "' for "
                  << arg_ << "\n";
        bad_value_ = true;
        return 0;
    }
}

double
ArgCursor::doubleValue()
{
    std::string text = value();
    if (bad_value_)
        return 0;
    try {
        size_t used = 0;
        double parsed = std::stod(text, &used);
        // NaN fails every range check a caller can write, so it would
        // pass all of them: reject it here.
        if (used != text.size() || std::isnan(parsed))
            throw std::invalid_argument(text);
        return parsed;
    } catch (const std::exception &) {
        std::cerr << prog_ << ": bad number '" << text << "' for "
                  << arg_ << "\n";
        bad_value_ = true;
        return 0;
    }
}

std::optional<uint64_t>
ArgCursor::byteValue()
{
    std::string text = value();
    if (bad_value_)
        return std::nullopt;
    uint64_t scale = 1;
    std::string digits = text;
    if (!digits.empty()) {
        char suffix = digits.back();
        if (suffix == 'k' || suffix == 'K')
            scale = 1024ull;
        else if (suffix == 'm' || suffix == 'M')
            scale = 1024ull * 1024;
        else if (suffix == 'g' || suffix == 'G')
            scale = 1024ull * 1024 * 1024;
        if (scale != 1)
            digits.pop_back();
    }
    try {
        // stoull accepts a sign and wraps "-1" to 2^64 - 1: digits only.
        if (digits.empty() ||
            !std::isdigit(static_cast<unsigned char>(digits[0])))
            throw std::invalid_argument(text);
        size_t used = 0;
        uint64_t parsed = std::stoull(digits, &used);
        if (used != digits.size() ||
            parsed > std::numeric_limits<uint64_t>::max() / scale)
            throw std::invalid_argument(text);
        return parsed * scale;
    } catch (const std::exception &) {
        std::cerr << prog_ << ": bad byte count '" << text << "' for "
                  << arg_ << "\n";
        bad_value_ = true;
        return std::nullopt;
    }
}

std::vector<std::string>
splitList(const std::string &text)
{
    std::vector<std::string> out;
    std::stringstream stream(text);
    std::string piece;
    while (std::getline(stream, piece, ',')) {
        if (!piece.empty())
            out.push_back(piece);
    }
    return out;
}

bool
handleScheduleFlag(ArgCursor &args, const std::string &arg,
                   core::SeerOptions &seer)
{
    if (arg == "--schedule") {
        std::string name = args.value();
        if (args.failed())
            return true;
        if (!core::parseScheduleKind(name, &seer.schedule)) {
            args.fail("bad --schedule '" + name +
                      "' (expected exhaustive or bandit)");
        }
    } else if (arg == "--eval-budget") {
        double budget = args.doubleValue();
        if (!args.failed() && (budget <= 0 || budget > 1))
            args.fail("--eval-budget must be in (0, 1]");
        else
            seer.eval_budget = budget;
    } else if (arg == "--schedule-seed") {
        seer.schedule_seed = args.intValue<uint64_t>();
    } else {
        return false;
    }
    return true;
}

const char *
scheduleFlagsUsage()
{
    return
        "  --schedule S       proposal scheduler: 'exhaustive'\n"
        "                     (default; every candidate, enumeration\n"
        "                     order) or 'bandit' (seeded UCB over\n"
        "                     (pass, snippet-hash) arms; may settle on\n"
        "                     a different — never unsound — optimum)\n"
        "  --eval-budget F    bandit: cold external evaluations per\n"
        "                     candidate wave as a fraction in (0, 1]\n"
        "                     (default 1.0; every wave keeps >= 1 slot)\n"
        "  --schedule-seed N  bandit replay seed (default 0x5EED); the\n"
        "                     same seed replays byte-identically across\n"
        "                     runs, processes, and -j values\n";
}

} // namespace seer::cli
