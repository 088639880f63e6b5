#include "neuro/datasets/idx_loader.h"

#include <cstdint>
#include <fstream>
#include <vector>

#include "neuro/common/logging.h"

namespace neuro {
namespace datasets {

namespace {

/** Read a big-endian 32-bit word; @return false at EOF. */
bool
readU32(std::istream &in, uint32_t &v)
{
    unsigned char b[4];
    if (!in.read(reinterpret_cast<char *>(b), 4))
        return false;
    v = (uint32_t{b[0]} << 24) | (uint32_t{b[1]} << 16) |
        (uint32_t{b[2]} << 8) | uint32_t{b[3]};
    return true;
}

/** @return bytes between the read position of @p in and its end. */
uint64_t
bytesLeft(std::istream &in)
{
    const std::istream::pos_type here = in.tellg();
    in.seekg(0, std::ios::end);
    const std::istream::pos_type end = in.tellg();
    in.seekg(here);
    return end > here ? static_cast<uint64_t>(end - here) : 0;
}

/** Load an idx3-ubyte image file. */
bool
loadImages(const std::string &path, std::size_t limit,
           std::vector<std::vector<uint8_t>> &images, std::size_t &width,
           std::size_t &height)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    uint32_t magic, count, rows, cols;
    if (!readU32(in, magic) || !readU32(in, count) || !readU32(in, rows) ||
        !readU32(in, cols)) {
        return false;
    }
    if (magic != 0x00000803) {
        warn("%s: bad idx3 magic 0x%08x", path.c_str(), magic);
        return false;
    }
    // Nothing is allocated from the header until the file is known to
    // hold every image it claims: a lying count or size is rejected.
    const uint64_t image_bytes = uint64_t{rows} * cols;
    if (image_bytes == 0 || count > bytesLeft(in) / image_bytes) {
        warn("%s: header claims %u images of %ux%u, more than the file "
             "holds",
             path.c_str(), count, rows, cols);
        return false;
    }
    const std::size_t n =
        limit == 0 ? count : std::min<std::size_t>(limit, count);
    width = cols;
    height = rows;
    images.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        images[i].resize(static_cast<std::size_t>(rows) * cols);
        if (!in.read(reinterpret_cast<char *>(images[i].data()),
                     static_cast<std::streamsize>(images[i].size()))) {
            return false;
        }
    }
    return true;
}

/** Load an idx1-ubyte label file. */
bool
loadLabels(const std::string &path, std::size_t limit,
           std::vector<uint8_t> &labels)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    uint32_t magic, count;
    if (!readU32(in, magic) || !readU32(in, count))
        return false;
    if (magic != 0x00000801) {
        warn("%s: bad idx1 magic 0x%08x", path.c_str(), magic);
        return false;
    }
    if (count > bytesLeft(in)) {
        warn("%s: header claims %u labels, more than the file holds",
             path.c_str(), count);
        return false;
    }
    const std::size_t n =
        limit == 0 ? count : std::min<std::size_t>(limit, count);
    labels.resize(n);
    return static_cast<bool>(
        in.read(reinterpret_cast<char *>(labels.data()),
                static_cast<std::streamsize>(n)));
}

/** Assemble a Dataset from parallel image/label arrays. */
bool
assemble(const std::string &name, std::size_t width, std::size_t height,
         std::vector<std::vector<uint8_t>> &images,
         const std::vector<uint8_t> &labels, Dataset &out)
{
    const std::size_t n = std::min(images.size(), labels.size());
    if (n == 0)
        return false;
    out = Dataset(name, width, height, 10);
    for (std::size_t i = 0; i < n; ++i) {
        Sample s;
        s.pixels = std::move(images[i]);
        s.label = labels[i];
        if (s.label < 0 || s.label > 9)
            return false;
        out.add(std::move(s));
    }
    return true;
}

} // namespace

bool
loadMnistIdx(const std::string &dir, std::size_t train_size,
             std::size_t test_size, Split &out)
{
    std::vector<std::vector<uint8_t>> train_images, test_images;
    std::vector<uint8_t> train_labels, test_labels;
    std::size_t w = 0, h = 0, tw = 0, th = 0;

    if (!loadImages(dir + "/train-images-idx3-ubyte", train_size,
                    train_images, w, h) ||
        !loadLabels(dir + "/train-labels-idx1-ubyte", train_size,
                    train_labels) ||
        !loadImages(dir + "/t10k-images-idx3-ubyte", test_size, test_images,
                    tw, th) ||
        !loadLabels(dir + "/t10k-labels-idx1-ubyte", test_size,
                    test_labels)) {
        return false;
    }
    if (w != tw || h != th)
        return false;

    Split split;
    if (!assemble("mnist-train", w, h, train_images, train_labels,
                  split.train) ||
        !assemble("mnist-test", tw, th, test_images, test_labels,
                  split.test)) {
        return false;
    }
    out = std::move(split);
    return true;
}

} // namespace datasets
} // namespace neuro
