/**
 * @file
 * Lightweight key/value configuration registry. Benches and examples use
 * it to expose every knob of the reproduced experiments (topologies,
 * training budgets, hardware parameters) with paper defaults, overridable
 * from the command line (`key=value` arguments). Process settings
 * (NEURO_THREADS, NEURO_SIMD, NEURO_TRACE, ...) are environment
 * variables read each at its own site, never config keys.
 */

#pragma once

#include <map>
#include <string>
#include <vector>

namespace neuro {

/** A string-typed configuration map with typed accessors. */
class Config
{
  public:
    Config() = default;

    /** Set (or overwrite) a key. */
    void set(const std::string &key, const std::string &value);

    /** @return true if @p key is present. */
    bool has(const std::string &key) const;

    /** @return the value of @p key, or @p fallback if absent/unparsable. */
    std::string getString(const std::string &key,
                          const std::string &fallback) const;
    /** @return the integer value of @p key, or @p fallback. */
    long getInt(const std::string &key, long fallback) const;
    /** @return the double value of @p key, or @p fallback. */
    double getDouble(const std::string &key, double fallback) const;
    /** @return the boolean value of @p key (0/1/true/false/yes/no). */
    bool getBool(const std::string &key, bool fallback) const;

    /**
     * Parse `key=value`, `--key=value` and bare `--flag` tokens (the
     * last stored as "1") from an argv vector; dashes inside keys map
     * to underscores. Non-matching tokens are ignored so benches can
     * coexist with other flags.
     *
     * Dashed flags are checked against a constant known-flag table: a
     * typo like `--theads=4` no longer vanishes silently but warns
     * (with a did-you-mean suggestion) and is listed in
     * unknownFlags(). The value is still stored, so plain `key=value`
     * passthrough and forward compatibility are unchanged.
     */
    void parseArgs(int argc, char **argv);

    /** @return the dashed flags the last parseArgs did not recognize
     *  (normalized, without the leading dashes). */
    const std::vector<std::string> &unknownFlags() const
    {
        return unknownFlags_;
    }

    /** @return all key/value pairs (for dumping Table 1-style output). */
    const std::map<std::string, std::string> &entries() const
    {
        return entries_;
    }

  private:
    std::map<std::string, std::string> entries_;
    std::vector<std::string> unknownFlags_;
};

/**
 * Global experiment scale factor in (0, 1]: scales training-set sizes and
 * epoch counts so that the full bench suite completes on a laptop. Read
 * once from the NEURO_SCALE environment variable (default 1.0).
 */
double experimentScale();

/** @return max(minimum, round(n * experimentScale())). */
std::size_t scaled(std::size_t n, std::size_t minimum = 1);

} // namespace neuro

