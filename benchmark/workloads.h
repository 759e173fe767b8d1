//===- benchmark/workloads.h - Seeded workloads and their oracle -*- C++ -*-===//
//
// Part of the etch project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The four workloads of the served-system benchmark: the tensors each one
/// loads, the query shapes it reads, the views it registers, and the write
/// batches it appends — all drawn from the `--seed`. Every value is an
/// integer in 1..4, so every sum the system computes is exact in f64 and
/// every answer can be checked bit for bit.
///
/// The reference answers come from the benchmark's own copy of the data,
/// computed by plain loops here and updated per write batch — never through
/// the planner, the compiler, or the service.
///
//===----------------------------------------------------------------------===//

#ifndef ETCH_BENCHMARK_WORKLOADS_H
#define ETCH_BENCHMARK_WORKLOADS_H

#include "serve/service.h"
#include "support/rng.h"

#include <map>
#include <optional>
#include <string>
#include <vector>

namespace bench {

using etch::Idx;

enum class Kind { ServeSmall, ServeLarge, IngestViews, Replan };

std::optional<Kind> parseKind(const std::string &Name);
const char *kindName(Kind K);

/// One catalog tensor as the workload loads it.
struct TensorDef {
  std::string Name;
  etch::CatalogTensor::Kind K = etch::CatalogTensor::Kind::Sparse;
  etch::CsrMatrix<double> Csr;
  etch::SparseVector<double> Sparse;
  etch::DenseVector<double> Dense;
  etch::Attr Row, Col; ///< Col is unused for vectors.
};

/// A named query shape: the full contraction of a product of tensors.
struct ShapeDef {
  std::string Name;
  etch::ServeQuery Q;
};

/// One append batch. On ingest_views, `Slots` index the stored entries of
/// A the batch updates (the oracle's own bookkeeping); the service sees
/// only the entries.
struct Write {
  std::string Tensor;
  std::vector<etch::CooEntry<double>> Csr;
  std::vector<std::pair<Idx, double>> Sparse;
  std::vector<size_t> Slots;
};

/// A workload's data, shapes, write stream, and reference answers.
class Workload {
public:
  Workload(Kind K, uint64_t Seed);

  Kind kind() const { return K; }
  const std::vector<TensorDef> &tensors() const { return Tensors; }
  /// Shapes answered by `query` (closed-loop clients or open-loop readers).
  const std::vector<ShapeDef> &shapes() const { return Shapes; }
  /// Scalar views registered at set-up (ingest_views only).
  const std::vector<ShapeDef> &views() const { return Views; }
  bool writes() const { return K == Kind::IngestViews || K == Kind::Replan; }

  /// The \p I-th write batch of the seeded write stream (the same sequence
  /// in every process that uses this seed).
  Write write(uint64_t I) const;

  /// Reference answer for a shape or view under the writes applied so far.
  double reference(const std::string &Name) const { return Ref.at(Name); }
  /// Folds \p W into the reference answers (call once per applied batch,
  /// in stream order).
  void apply(const Write &W);

  /// Loads every tensor into \p S through the service's write path.
  void load(etch::ContractionService &S) const;

private:
  Kind K;
  uint64_t Seed;
  std::vector<TensorDef> Tensors;
  std::vector<ShapeDef> Shapes;
  std::vector<ShapeDef> Views;
  std::map<std::string, double> Ref;

  // Oracle state for the written tensors.
  std::vector<etch::CooEntry<double>> ACoo; ///< ingest: A's stored entries.
  std::vector<double> XDense;               ///< Dense copy of x.
  std::vector<double> DDense;               ///< replan: dense copy of d.
  std::vector<double> AColSum;              ///< replan: Σ_i A(i, j).
  std::vector<Idx> XCrd;                    ///< replan: x's stored coords.
};

/// Bitwise equality of two doubles.
bool sameBits(double A, double B);

} // namespace bench

#endif // ETCH_BENCHMARK_WORKLOADS_H
