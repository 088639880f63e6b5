/**
 * @file
 * Dataset container shared by every workload in the study. Images are
 * stored as 8-bit luminance values (the paper's input format: "the inputs
 * are usually n-bit values (8-bit values in our case for the pixel
 * luminance)"), with float accessors normalizing to [0, 1].
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace neuro {
namespace datasets {

/** One labeled image: row-major 8-bit luminance plus class label. */
struct Sample
{
    std::vector<uint8_t> pixels; ///< width*height luminance values.
    int label = 0;               ///< class index in [0, numClasses).
};

/** A labeled image dataset with fixed geometry. */
class Dataset
{
  public:
    Dataset() = default;

    /** Construct an empty dataset with the given geometry. */
    Dataset(std::string name, std::size_t width, std::size_t height,
            int num_classes);

    /** @return dataset name (used in reports). */
    const std::string &name() const { return name_; }
    /** @return image width in pixels. */
    std::size_t width() const { return width_; }
    /** @return image height in pixels. */
    std::size_t height() const { return height_; }
    /** @return number of input pixels (width*height). */
    std::size_t inputSize() const { return width_ * height_; }
    /** @return number of classes. */
    int numClasses() const { return numClasses_; }
    /** @return number of samples. */
    std::size_t size() const { return samples_.size(); }
    /** @return true if no samples. */
    bool empty() const { return samples_.empty(); }

    /** Append a sample (its pixel count must match the geometry). */
    void add(Sample sample);

    /** @return the i-th sample. */
    const Sample &operator[](std::size_t i) const { return samples_[i]; }

    /**
     * Write the i-th sample's pixels as floats in [0,1] into @p out
     * (must hold inputSize() floats).
     */
    void normalized(std::size_t i, float *out) const;

    /** @return a new dataset containing samples [begin, end). */
    Dataset slice(std::size_t begin, std::size_t end) const;

    /** @return per-class sample counts. */
    std::vector<std::size_t> classHistogram() const;

  private:
    std::string name_;
    std::size_t width_ = 0;
    std::size_t height_ = 0;
    int numClasses_ = 0;
    std::vector<Sample> samples_;
};

/** A train/test pair as produced by the generators. */
struct Split
{
    Dataset train; ///< training partition.
    Dataset test;  ///< held-out test partition.
};

} // namespace datasets
} // namespace neuro

