/**
 * @file
 * Lightweight key=value configuration with typed accessors.
 *
 * Benches, tests and examples parse command-line arguments of the form
 * `key=value` into a Config and hand it to experiment constructors, so
 * every run parameter (seed, injection rate, heap size, ...) can be
 * overridden without recompiling.
 */

#ifndef JASIM_SIM_CONFIG_H
#define JASIM_SIM_CONFIG_H

#include <cstdint>
#include <map>
#include <string>

namespace jasim {

/** String-keyed configuration map with typed, defaulted lookups. */
class Config
{
  public:
    Config() = default;

    /**
     * Parse argv entries. Accepted forms, all equivalent:
     * `key=value`, `--key=value`, `--key value`; a bare `--key`
     * becomes the boolean `key=1`. Anything else is ignored.
     */
    static Config fromArgs(int argc, char **argv);

    /** Set (or overwrite) a key. */
    void set(const std::string &key, const std::string &value);

    /** True if the key is present. */
    bool has(const std::string &key) const;

    /**
     * Typed getters; return the fallback when absent. A present
     * number must parse whole (integers in base 0, so `0x10` is 16):
     * otherwise getInt and getDouble throw std::invalid_argument
     * naming `key=value`.
     */
    std::string getString(const std::string &key,
                          const std::string &fallback) const;
    std::int64_t getInt(const std::string &key, std::int64_t fallback) const;
    double getDouble(const std::string &key, double fallback) const;
    bool getBool(const std::string &key, bool fallback) const;

    /**
     * Validated sweep worker count from `--jobs N`.
     *
     * Absent, negative, or unparsable values mean 1 (serial); 0 means
     * "one worker per hardware thread"; anything above 256 is clamped
     * to 256 so a typo cannot fork a thread bomb.
     */
    std::size_t jobs() const;

    /**
     * Fault-schedule spec from `--faults <spec>` (see
     * fault/schedule.h for the grammar). Empty — the default — means
     * a healthy run; benches pass it to FaultSchedule::parse.
     */
    std::string faults() const { return getString("faults", ""); }

    /**
     * Arrival-process spec from `--arrival <spec>` (see
     * driver/arrival.h for the grammar). Empty — the default — means
     * fixed-rate Poisson; benches pass it to ArrivalSpec::parse.
     */
    std::string arrival() const { return getString("arrival", ""); }

    /**
     * Admission-control spec from `--admission <spec>` (see
     * adm/admission.h for the grammar). Empty — the default — means
     * no admission control; benches pass it to
     * adm::AdmissionConfig::parse.
     */
    std::string admission() const
    {
        return getString("admission", "");
    }

    /**
     * Validated shard count from `--shards N` (replicated DB tier).
     *
     * Absent, zero, negative, or unparsable values mean 1 (the
     * legacy single box); anything above 64 is clamped to 64.
     */
    std::size_t shards() const;

    /**
     * Validated replicas-per-shard from `--replicas R`.
     *
     * Absent, negative, or unparsable values mean 0 (unreplicated);
     * anything above 8 is clamped to 8.
     */
    std::size_t replicas() const;

    /**
     * Replication ack mode from `--sync-mode {sync,async}`.
     *
     * "sync" acks a commit only once a replica holds it durably;
     * anything else — including the default — is "async".
     */
    std::string syncMode() const;
    bool syncReplication() const { return syncMode() == "sync"; }

    const std::map<std::string, std::string> &entries() const
    {
        return values_;
    }

  private:
    std::map<std::string, std::string> values_;
};

} // namespace jasim

#endif // JASIM_SIM_CONFIG_H
