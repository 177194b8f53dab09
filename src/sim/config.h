/**
 * @file
 * The one reader of outside input: key=value configuration with
 * typed, ranged lookups, and the number parser and list splitter
 * that the spec grammars (`--faults`, `--arrival`, `--admission`)
 * share.
 *
 * Benches, tests and examples parse command-line arguments of the form
 * `key=value` into a Config and hand it to experiment constructors, so
 * every run parameter (seed, injection rate, heap size, ...) can be
 * overridden without recompiling. Every getter records the key it
 * read, so once a program has read everything, rejectUnread() names
 * any argument that no read understood: the reads themselves declare
 * the keys.
 */

#ifndef JASIM_SIM_CONFIG_H
#define JASIM_SIM_CONFIG_H

#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

namespace jasim {

/** Range ends for parseDouble: "above 0", and "no upper bound". */
inline constexpr double kAboveZero =
    std::numeric_limits<double>::denorm_min();
inline constexpr double kNoLimit = std::numeric_limits<double>::max();

/**
 * Parse the whole of `text` as an integer (base 0, so `0x10` is 16)
 * or as a finite number, and require it to lie in [lo, hi]. Anything
 * else throws std::invalid_argument("<what>: <reason>").
 */
std::int64_t parseInt(
    const std::string &what, const std::string &text,
    std::int64_t lo = std::numeric_limits<std::int64_t>::min(),
    std::int64_t hi = std::numeric_limits<std::int64_t>::max());
double parseDouble(const std::string &what, const std::string &text,
                   double lo = std::numeric_limits<double>::lowest(),
                   double hi = kNoLimit);

/** `text` without its surrounding white space. */
std::string trim(const std::string &text);

/** `text` cut at every `sep`, each piece trimmed; empty pieces stay. */
std::vector<std::string> splitList(const std::string &text, char sep);

/**
 * One `key=value` item of a spec (see splitSpec). Its value is read
 * with parseInt(what, value, ...) or parseDouble(what, value, ...), so
 * a bad number throws "<flag>: <key>=<value>: <reason>".
 */
struct SpecItem
{
    std::string key;
    std::string value;
    std::string what; //!< `<flag>: <key>=<value>`, naming it in errors
};

/**
 * The error a spec grammar throws for anything else it does not
 * understand: std::invalid_argument("<flag>: <what> in \"<token>\"").
 */
std::invalid_argument specError(const std::string &flag,
                                const std::string &what,
                                const std::string &token);

/**
 * The trimmed `key=value` items of a comma-separated spec; empty items
 * are skipped. A fragment without '=' continues the previous item's
 * value (`sides=0,1|2` is one item); with no item before it, it throws
 * specError(flag, ..., fragment).
 */
std::vector<SpecItem> splitSpec(const std::string &flag,
                                const std::string &text);

/** String-keyed configuration map with typed, defaulted lookups. */
class Config
{
  public:
    Config() = default;

    /**
     * Parse argv entries. Accepted forms, all equivalent:
     * `key=value`, `--key=value`, `--key value`; a bare `--key`
     * becomes the boolean `key=1`. Any other token is kept as stray,
     * for rejectUnread() to name.
     */
    static Config fromArgs(int argc, char **argv);

    /** Set (or overwrite) a key. */
    void set(const std::string &key, const std::string &value);

    /** True if the key is present (this does not count as a read). */
    bool has(const std::string &key) const;

    /**
     * Typed getters; each returns the fallback when the key is absent
     * and records the key as read. A present number must parse whole
     * and lie in [lo, hi] (see parseInt and parseDouble); getBool
     * takes 1/0, true/false, yes/no and on/off; getChoice takes one of
     * `choices`. Anything else throws std::invalid_argument naming
     * `key=value`.
     *
     * The record is not synchronized: read every key before starting
     * worker threads.
     */
    std::string getString(const std::string &key,
                          const std::string &fallback) const;
    std::int64_t getInt(
        const std::string &key, std::int64_t fallback,
        std::int64_t lo = std::numeric_limits<std::int64_t>::min(),
        std::int64_t hi = std::numeric_limits<std::int64_t>::max()) const;
    double getDouble(const std::string &key, double fallback,
                     double lo = std::numeric_limits<double>::lowest(),
                     double hi = kNoLimit) const;
    bool getBool(const std::string &key, bool fallback) const;
    std::string getChoice(const std::string &key,
                          const std::string &fallback,
                          const std::vector<std::string> &choices) const;

    /**
     * Sweep worker count from `--jobs N`, read as 0 to 256: absent
     * means 1 (serial), and 0 means one worker per hardware thread.
     */
    std::size_t jobs() const;

    /**
     * Throw std::invalid_argument naming every argument that no getter
     * has read, and every argv token fromArgs could not use. Call it
     * after the last read.
     */
    void rejectUnread() const;

    const std::map<std::string, std::string> &entries() const
    {
        return values_;
    }

  private:
    std::map<std::string, std::string> values_;
    std::vector<std::string> stray_;
    mutable std::set<std::string> read_;

    /** The value of a present key (recording the read), or null. */
    const std::string *find(const std::string &key) const;
};

} // namespace jasim

#endif // JASIM_SIM_CONFIG_H
