#include "neuro/common/serialize.h"

#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <fstream>

namespace neuro {

namespace {

constexpr char kMagic[4] = {'N', 'C', 'M', 'P'};
constexpr uint32_t kVersion = 1;
constexpr uint8_t kTagFloat = 1;
constexpr uint8_t kTagInt = 2;

void
writeU32(std::ostream &out, uint32_t v)
{
    out.write(reinterpret_cast<const char *>(&v), sizeof(v));
}

void
writeU64(std::ostream &out, uint64_t v)
{
    out.write(reinterpret_cast<const char *>(&v), sizeof(v));
}

bool
readU32(std::istream &in, uint32_t &v)
{
    return static_cast<bool>(
        in.read(reinterpret_cast<char *>(&v), sizeof(v)));
}

bool
readU64(std::istream &in, uint64_t &v)
{
    return static_cast<bool>(
        in.read(reinterpret_cast<char *>(&v), sizeof(v)));
}

void
writeName(std::ostream &out, const std::string &name)
{
    writeU32(out, static_cast<uint32_t>(name.size()));
    out.write(name.data(), static_cast<std::streamsize>(name.size()));
}

bool
readName(std::istream &in, std::string &name)
{
    uint32_t len = 0;
    if (!readU32(in, len) || len > 4096)
        return false;
    name.resize(len);
    return static_cast<bool>(
        in.read(name.data(), static_cast<std::streamsize>(len)));
}

} // namespace

void
Archive::putFloats(const std::string &name, std::vector<float> values)
{
    intArrays_.erase(name);
    floatArrays_[name] = std::move(values);
}

void
Archive::putInts(const std::string &name, std::vector<int64_t> values)
{
    floatArrays_.erase(name);
    intArrays_[name] = std::move(values);
}

void
Archive::putScalar(const std::string &name, double value)
{
    putFloats(name, {static_cast<float>(value)});
}

bool
Archive::has(const std::string &name) const
{
    return floatArrays_.count(name) != 0 || intArrays_.count(name) != 0;
}

const std::vector<float> *
Archive::floats(const std::string &name) const
{
    auto it = floatArrays_.find(name);
    return it != floatArrays_.end() ? &it->second : nullptr;
}

const std::vector<int64_t> *
Archive::ints(const std::string &name) const
{
    auto it = intArrays_.find(name);
    return it != intArrays_.end() ? &it->second : nullptr;
}

std::optional<double>
Archive::scalar(const std::string &name) const
{
    const std::vector<float> *values = floats(name);
    if (values == nullptr || values->size() != 1)
        return std::nullopt;
    return (*values)[0];
}

bool
Archive::fail(const char *fmt, ...) const
{
    char buffer[512];
    va_list args;
    va_start(args, fmt);
    std::vsnprintf(buffer, sizeof(buffer), fmt, args);
    va_end(args);
    lastError_ = buffer;
    return false;
}

bool
Archive::save(const std::string &path) const
{
    std::ofstream out(path, std::ios::binary);
    if (!out)
        return fail("cannot open '%s' for writing", path.c_str());
    lastError_.clear();
    out.write(kMagic, sizeof(kMagic));
    writeU32(out, kVersion);
    writeU32(out, static_cast<uint32_t>(size()));
    for (const auto &[name, values] : floatArrays_) {
        writeName(out, name);
        out.put(static_cast<char>(kTagFloat));
        writeU64(out, values.size());
        out.write(reinterpret_cast<const char *>(values.data()),
                  static_cast<std::streamsize>(values.size() *
                                               sizeof(float)));
    }
    for (const auto &[name, values] : intArrays_) {
        writeName(out, name);
        out.put(static_cast<char>(kTagInt));
        writeU64(out, values.size());
        out.write(reinterpret_cast<const char *>(values.data()),
                  static_cast<std::streamsize>(values.size() *
                                               sizeof(int64_t)));
    }
    if (!out.good())
        return fail("I/O error writing '%s'", path.c_str());
    return true;
}

bool
Archive::load(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return fail("cannot open '%s'", path.c_str());
    // Total size bounds every element count below: a corrupt record
    // cannot claim more payload than the file holds, so no oversized
    // allocation is ever attempted on untrusted input.
    in.seekg(0, std::ios::end);
    const auto fileSize = static_cast<uint64_t>(in.tellg());
    in.seekg(0, std::ios::beg);

    char magic[4];
    if (!in.read(magic, 4) || std::memcmp(magic, kMagic, 4) != 0)
        return fail("'%s' is not an archive (bad magic)", path.c_str());
    uint32_t version = 0, count = 0;
    if (!readU32(in, version))
        return fail("'%s': truncated header", path.c_str());
    if (version != kVersion) {
        return fail("'%s': unsupported version %u (expected %u)",
                    path.c_str(), version, kVersion);
    }
    if (!readU32(in, count))
        return fail("'%s': truncated header", path.c_str());
    Archive loaded;
    for (uint32_t i = 0; i < count; ++i) {
        std::string name;
        if (!readName(in, name)) {
            return fail("'%s': truncated or oversized name of record "
                        "%u/%u",
                        path.c_str(), i + 1, count);
        }
        const int tag = in.get();
        uint64_t n = 0;
        if (tag == EOF || !readU64(in, n)) {
            return fail("'%s': truncated record '%s'", path.c_str(),
                        name.c_str());
        }
        if (tag != kTagFloat && tag != kTagInt) {
            return fail("'%s': record '%s' has unknown type tag %d",
                        path.c_str(), name.c_str(), tag);
        }
        const uint64_t elemSize =
            tag == kTagFloat ? sizeof(float) : sizeof(int64_t);
        const auto pos = static_cast<uint64_t>(in.tellg());
        if (n > (fileSize - pos) / elemSize) {
            return fail("'%s': record '%s' claims %llu elements but "
                        "only %llu bytes remain (truncated or corrupt)",
                        path.c_str(), name.c_str(),
                        static_cast<unsigned long long>(n),
                        static_cast<unsigned long long>(fileSize - pos));
        }
        if (tag == kTagFloat) {
            std::vector<float> values(n);
            if (!in.read(reinterpret_cast<char *>(values.data()),
                         static_cast<std::streamsize>(n *
                                                      sizeof(float)))) {
                return fail("'%s': truncated payload of record '%s'",
                            path.c_str(), name.c_str());
            }
            loaded.putFloats(name, std::move(values));
        } else {
            std::vector<int64_t> values(n);
            if (!in.read(reinterpret_cast<char *>(values.data()),
                         static_cast<std::streamsize>(
                             n * sizeof(int64_t)))) {
                return fail("'%s': truncated payload of record '%s'",
                            path.c_str(), name.c_str());
            }
            loaded.putInts(name, std::move(values));
        }
    }
    *this = std::move(loaded);
    lastError_.clear();
    return true;
}

} // namespace neuro
