#include "sim/config.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <sstream>
#include <thread>

namespace jasim {

namespace {

/** "must be at least <lo> and at most <hi>", leaving out an open end. */
template <typename T>
std::string
rangeRule(T lo, T hi)
{
    const bool low_open = lo == std::numeric_limits<T>::lowest();
    std::ostringstream rule;
    rule << "must be";
    if (static_cast<double>(lo) == kAboveZero)
        rule << " above 0";
    else if (!low_open)
        rule << " at least " << lo;
    if (hi != std::numeric_limits<T>::max())
        rule << (low_open ? "" : " and") << " at most " << hi;
    return rule.str();
}

} // namespace

std::int64_t
parseInt(const std::string &what, const std::string &text,
         std::int64_t lo, std::int64_t hi)
{
    char *end = nullptr;
    errno = 0;
    const std::int64_t value = std::strtoll(text.c_str(), &end, 0);
    if (end == text.c_str() || *end != '\0' || errno == ERANGE)
        throw std::invalid_argument(what + ": not an integer");
    if (value < lo || value > hi)
        throw std::invalid_argument(what + ": " + rangeRule(lo, hi));
    return value;
}

double
parseDouble(const std::string &what, const std::string &text, double lo,
            double hi)
{
    char *end = nullptr;
    const double value = std::strtod(text.c_str(), &end);
    if (end == text.c_str() || *end != '\0' || !std::isfinite(value))
        throw std::invalid_argument(what + ": not a finite number");
    if (value < lo || value > hi)
        throw std::invalid_argument(what + ": " + rangeRule(lo, hi));
    return value;
}

std::string
trim(const std::string &text)
{
    const auto begin = text.find_first_not_of(" \t\n\r");
    if (begin == std::string::npos)
        return "";
    const auto end = text.find_last_not_of(" \t\n\r");
    return text.substr(begin, end - begin + 1);
}

std::vector<std::string>
splitList(const std::string &text, char sep)
{
    std::vector<std::string> pieces;
    std::size_t from = 0;
    for (std::size_t cut; (cut = text.find(sep, from)) != std::string::npos;
         from = cut + 1)
        pieces.push_back(trim(text.substr(from, cut - from)));
    pieces.push_back(trim(text.substr(from)));
    return pieces;
}

std::invalid_argument
specError(const std::string &flag, const std::string &what,
          const std::string &token)
{
    return std::invalid_argument(flag + ": " + what + " in \"" + token +
                                 "\"");
}

std::vector<SpecItem>
splitSpec(const std::string &flag, const std::string &text)
{
    std::vector<SpecItem> items;
    for (const std::string &fragment : splitList(text, ',')) {
        if (fragment.empty())
            continue;
        const auto eq = fragment.find('=');
        if (eq != std::string::npos) {
            items.push_back({trim(fragment.substr(0, eq)),
                             trim(fragment.substr(eq + 1)), ""});
        } else if (!items.empty()) {
            items.back().value += "," + fragment;
        } else {
            throw specError(flag, "expected key=value", fragment);
        }
    }
    for (SpecItem &item : items)
        item.what = flag + ": " + item.key + "=" + item.value;
    return items;
}

Config
Config::fromArgs(int argc, char **argv)
{
    Config config;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];

        // GNU-style flags normalize to the same keys: `--seed 42`
        // and `--seed=42` both mean `seed=42`; a bare `--flag` with
        // no value is a boolean `flag=1`. A following token that is
        // itself a `key=value` positional stays positional — but keys
        // are plain identifiers, so when punctuation like '@' or ':'
        // precedes the first '=' (a `--faults` spec, say) the token
        // is this flag's value.
        if (arg.rfind("--", 0) == 0 && arg.size() > 2) {
            arg = arg.substr(2);
            if (arg.find('=') == std::string::npos) {
                bool next_is_value = false;
                if (i + 1 < argc) {
                    const std::string next = argv[i + 1];
                    const auto next_eq = next.find('=');
                    next_is_value = next.rfind("--", 0) != 0 &&
                        (next_eq == std::string::npos ||
                         next.find_first_of("@:;") < next_eq);
                }
                config.set(arg, next_is_value ? argv[++i] : "1");
                continue;
            }
        }

        const auto eq = arg.find('=');
        if (eq == std::string::npos || eq == 0)
            config.stray_.push_back(argv[i]);
        else
            config.set(arg.substr(0, eq), arg.substr(eq + 1));
    }
    return config;
}

void
Config::set(const std::string &key, const std::string &value)
{
    values_[key] = value;
}

bool
Config::has(const std::string &key) const
{
    return values_.count(key) != 0;
}

const std::string *
Config::find(const std::string &key) const
{
    read_.insert(key);
    const auto it = values_.find(key);
    return it == values_.end() ? nullptr : &it->second;
}

std::string
Config::getString(const std::string &key, const std::string &fallback) const
{
    const std::string *value = find(key);
    return value ? *value : fallback;
}

std::int64_t
Config::getInt(const std::string &key, std::int64_t fallback,
               std::int64_t lo, std::int64_t hi) const
{
    const std::string *value = find(key);
    return value ? parseInt(key + "=" + *value, *value, lo, hi) : fallback;
}

double
Config::getDouble(const std::string &key, double fallback, double lo,
                  double hi) const
{
    const std::string *value = find(key);
    return value ? parseDouble(key + "=" + *value, *value, lo, hi)
                 : fallback;
}

bool
Config::getBool(const std::string &key, bool fallback) const
{
    const std::string word =
        getChoice(key, fallback ? "1" : "0",
                  {"1", "0", "true", "false", "yes", "no", "on", "off"});
    return word == "1" || word == "true" || word == "yes" || word == "on";
}

std::string
Config::getChoice(const std::string &key, const std::string &fallback,
                  const std::vector<std::string> &choices) const
{
    const std::string *value = find(key);
    if (!value)
        return fallback;
    if (std::find(choices.begin(), choices.end(), *value) != choices.end())
        return *value;
    std::string allowed;
    for (const std::string &choice : choices)
        allowed += (allowed.empty() ? "" : ", ") + choice;
    throw std::invalid_argument(key + "=" + *value + ": must be one of " +
                                allowed);
}

std::size_t
Config::jobs() const
{
    const auto jobs = static_cast<std::size_t>(getInt("jobs", 1, 0, 256));
    if (jobs > 0)
        return jobs;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? std::min(hw, 256u) : 1;
}

void
Config::rejectUnread() const
{
    std::vector<std::string> unread = stray_;
    for (const auto &[key, value] : values_)
        if (read_.count(key) == 0)
            unread.push_back(key + "=" + value);
    if (unread.empty())
        return;
    std::string message =
        unread.size() == 1 ? "unknown argument:" : "unknown arguments:";
    for (const std::string &token : unread)
        message += " " + token;
    throw std::invalid_argument(message);
}

} // namespace jasim
