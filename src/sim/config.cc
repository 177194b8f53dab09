#include "sim/config.h"

#include <cerrno>
#include <cstdlib>
#include <stdexcept>
#include <thread>

namespace jasim {

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
        if (arg.rfind("--", 0) == 0) {
            arg = arg.substr(2);
            if (arg.empty())
                continue;
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
            continue;
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

std::string
Config::getString(const std::string &key, const std::string &fallback) const
{
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
}

std::int64_t
Config::getInt(const std::string &key, std::int64_t fallback) const
{
    const auto it = values_.find(key);
    if (it == values_.end())
        return fallback;
    const char *text = it->second.c_str();
    char *end = nullptr;
    errno = 0;
    const std::int64_t value = std::strtoll(text, &end, 0);
    if (end == text || *end != '\0' || errno == ERANGE)
        throw std::invalid_argument(key + "=" + it->second +
                                    ": not an integer");
    return value;
}

double
Config::getDouble(const std::string &key, double fallback) const
{
    const auto it = values_.find(key);
    if (it == values_.end())
        return fallback;
    const char *text = it->second.c_str();
    char *end = nullptr;
    const double value = std::strtod(text, &end);
    if (end == text || *end != '\0')
        throw std::invalid_argument(key + "=" + it->second +
                                    ": not a number");
    return value;
}

std::size_t
Config::jobs() const
{
    const std::string text = getString("jobs", "1");
    char *end = nullptr;
    const std::int64_t raw = std::strtoll(text.c_str(), &end, 0);
    if (end == text.c_str() || raw < 0)
        return 1; // unparsable or negative: serial

    std::size_t jobs = static_cast<std::size_t>(raw);
    if (jobs == 0) {
        const unsigned hw = std::thread::hardware_concurrency();
        jobs = hw > 0 ? hw : 1;
    }
    return jobs > 256 ? 256 : jobs;
}

std::size_t
Config::shards() const
{
    const std::string text = getString("shards", "1");
    char *end = nullptr;
    const std::int64_t raw = std::strtoll(text.c_str(), &end, 0);
    if (end == text.c_str() || raw <= 0)
        return 1; // unparsable, zero, or negative: single box
    const std::size_t shards = static_cast<std::size_t>(raw);
    return shards > 64 ? 64 : shards;
}

std::size_t
Config::replicas() const
{
    const std::string text = getString("replicas", "0");
    char *end = nullptr;
    const std::int64_t raw = std::strtoll(text.c_str(), &end, 0);
    if (end == text.c_str() || raw < 0)
        return 0; // unparsable or negative: unreplicated
    const std::size_t replicas = static_cast<std::size_t>(raw);
    return replicas > 8 ? 8 : replicas;
}

std::string
Config::syncMode() const
{
    return getString("sync-mode", "async") == "sync" ? "sync" : "async";
}

bool
Config::getBool(const std::string &key, bool fallback) const
{
    const auto it = values_.find(key);
    if (it == values_.end())
        return fallback;
    const std::string &v = it->second;
    return v == "1" || v == "true" || v == "yes" || v == "on";
}

} // namespace jasim
