/// \file
/// Dense 2-D row-major tensors over the accounting MemoryPool.
///
/// Tensors are shallow-copyable handles (shared ownership of the payload);
/// the payload is returned to its pool when the last handle dies, which is how
/// the executor's eager-free policy turns into accurate peak-memory numbers.
#pragma once

#include <cstdint>
#include <memory>
#include <span>

#include "support/macros.h"
#include "support/rng.h"
#include "tensor/mempool.h"

namespace triad {

/// Float32 matrix of shape (rows, cols). A row usually corresponds to a
/// vertex or an edge; cols is the (possibly head-flattened) feature width.
class Tensor {
 public:
  Tensor() = default;

  /// Allocates uninitialized storage from `pool` tagged `tag`.
  Tensor(std::int64_t rows, std::int64_t cols, MemTag tag = MemTag::kActivations,
         MemoryPool* pool = &global_pool_mem());

  static Tensor zeros(std::int64_t rows, std::int64_t cols,
                      MemTag tag = MemTag::kActivations,
                      MemoryPool* pool = &global_pool_mem());
  static Tensor full(std::int64_t rows, std::int64_t cols, float value,
                     MemTag tag = MemTag::kActivations,
                     MemoryPool* pool = &global_pool_mem());
  /// Xavier/Glorot-uniform initialization for weight matrices.
  static Tensor xavier(std::int64_t rows, std::int64_t cols, Rng& rng,
                       MemTag tag = MemTag::kWeights,
                       MemoryPool* pool = &global_pool_mem());
  static Tensor randn(std::int64_t rows, std::int64_t cols, Rng& rng,
                      float stddev = 1.f, MemTag tag = MemTag::kActivations,
                      MemoryPool* pool = &global_pool_mem());

  bool defined() const { return storage_ != nullptr; }
  std::int64_t rows() const { return rows_; }
  std::int64_t cols() const { return cols_; }
  std::int64_t numel() const { return rows_ * cols_; }
  std::size_t bytes() const { return static_cast<std::size_t>(numel()) * sizeof(float); }
  MemTag tag() const { return storage_ ? storage_->tag : MemTag::kActivations; }
  /// Pool the payload is accounted in (null for an undefined tensor).
  MemoryPool* pool() const { return storage_ ? storage_->pool : nullptr; }

  float* data() { return storage_ ? storage_->data : nullptr; }
  const float* data() const { return storage_ ? storage_->data : nullptr; }
  float* row(std::int64_t r) { return data() + r * cols_; }
  const float* row(std::int64_t r) const { return data() + r * cols_; }

  float& at(std::int64_t r, std::int64_t c) {
    TRIAD_CHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_,
                "index (" << r << "," << c << ") out of (" << rows_ << "," << cols_ << ")");
    return data()[r * cols_ + c];
  }
  float at(std::int64_t r, std::int64_t c) const {
    return const_cast<Tensor*>(this)->at(r, c);
  }

  std::span<float> flat() { return {data(), static_cast<std::size_t>(numel())}; }
  std::span<const float> flat() const {
    return {data(), static_cast<std::size_t>(numel())};
  }

  void fill(float value);
  Tensor clone(MemTag tag, MemoryPool* pool = &global_pool_mem()) const;
  Tensor clone() const { return clone(tag()); }

  /// Releases this handle's reference (handle becomes undefined).
  void reset() { storage_.reset(); rows_ = cols_ = 0; }

 private:
  struct Storage {
    Storage(std::int64_t n, MemTag t, MemoryPool* p);
    ~Storage();
    Storage(const Storage&) = delete;
    Storage& operator=(const Storage&) = delete;
    float* data;
    std::int64_t count;
    MemTag tag;
    MemoryPool* pool;
  };

  std::shared_ptr<Storage> storage_;
  std::int64_t rows_ = 0, cols_ = 0;
};

/// Int32 matrix — labels, argmax indices, masks.
class IntTensor {
 public:
  IntTensor() = default;
  IntTensor(std::int64_t rows, std::int64_t cols,
            MemTag tag = MemTag::kActivations,
            MemoryPool* pool = &global_pool_mem());

  static IntTensor zeros(std::int64_t rows, std::int64_t cols,
                         MemTag tag = MemTag::kActivations,
                         MemoryPool* pool = &global_pool_mem());

  bool defined() const { return storage_ != nullptr; }
  std::int64_t rows() const { return rows_; }
  std::int64_t cols() const { return cols_; }
  std::int64_t numel() const { return rows_ * cols_; }

  std::int32_t* data() { return storage_ ? storage_->data : nullptr; }
  const std::int32_t* data() const { return storage_ ? storage_->data : nullptr; }
  std::int32_t& at(std::int64_t r, std::int64_t c) {
    TRIAD_CHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_, "index out of range");
    return data()[r * cols_ + c];
  }
  std::int32_t at(std::int64_t r, std::int64_t c) const {
    return const_cast<IntTensor*>(this)->at(r, c);
  }
  void fill(std::int32_t v);
  void reset() { storage_.reset(); rows_ = cols_ = 0; }

 private:
  struct Storage {
    Storage(std::int64_t n, MemTag t, MemoryPool* p);
    ~Storage();
    Storage(const Storage&) = delete;
    Storage& operator=(const Storage&) = delete;
    std::int32_t* data;
    std::int64_t count;
    MemTag tag;
    MemoryPool* pool;
  };
  std::shared_ptr<Storage> storage_;
  std::int64_t rows_ = 0, cols_ = 0;
};

}  // namespace triad
