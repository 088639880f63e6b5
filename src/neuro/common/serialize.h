/**
 * @file
 * Minimal binary serialization for trained models: a tagged,
 * little-endian container of named float/int arrays. Lets the examples
 * train once and reuse weights (e.g. inspect_network renders receptive
 * fields from a file written by online_learning).
 *
 * Format: magic "NCMP", u32 version, u32 record count, then per record
 * a length-prefixed name, a type tag, a u64 element count and the raw
 * payload.
 */

#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace neuro {

/** A named bag of arrays with file I/O. */
class Archive
{
  public:
    /** Store a float array under @p name (overwrites). */
    void putFloats(const std::string &name, std::vector<float> values);

    /** Store an int64 array under @p name (overwrites). */
    void putInts(const std::string &name, std::vector<int64_t> values);

    /** Store a single scalar (stored as a 1-element float array). */
    void putScalar(const std::string &name, double value);

    /** @return true if @p name exists (either type). */
    bool has(const std::string &name) const;

    /** @return the float array, or nullptr (absent or an int array). */
    const std::vector<float> *floats(const std::string &name) const;

    /** @return the int array, or nullptr (absent or a float array). */
    const std::vector<int64_t> *ints(const std::string &name) const;

    /** @return scalar stored by putScalar (nullopt unless @p name is a
     *  one-element float array). */
    std::optional<double> scalar(const std::string &name) const;

    /** Write to @p path. @return false on I/O failure. */
    bool save(const std::string &path) const;

    /** Read from @p path, replacing current contents.
     *  @return false on I/O or format failure (contents untouched).
     *  On failure lastError() describes what was wrong — the registry
     *  and CLI surface it instead of a bare "cannot read". Every
     *  record's element count is validated against the bytes actually
     *  remaining in the file, so a truncated or corrupt payload fails
     *  cleanly instead of attempting a huge allocation mid-read. */
    bool load(const std::string &path);

    /** @return a description of the last save()/load() failure
     *  (empty after a success). */
    const std::string &lastError() const { return lastError_; }

    /** @return number of stored records. */
    std::size_t size() const
    {
        return floatArrays_.size() + intArrays_.size();
    }

  private:
    /** Set lastError_ (printf-style) and @return false. */
    bool fail(const char *fmt, ...) const
        __attribute__((format(printf, 2, 3)));

    std::map<std::string, std::vector<float>> floatArrays_;
    std::map<std::string, std::vector<int64_t>> intArrays_;
    /** Failure description; mutable so const save() can report too. */
    mutable std::string lastError_;
};

} // namespace neuro

