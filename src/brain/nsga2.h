#ifndef DLROVER_BRAIN_NSGA2_H_
#define DLROVER_BRAIN_NSGA2_H_

#include <array>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "common/rng.h"

namespace dlrover {

/// Bounds of one decision variable. Integer variables are rounded to the
/// nearest integer after every variation operator.
struct DecisionBounds {
  double lo = 0.0;
  double hi = 1.0;
  bool integer = false;
};

struct Nsga2Options {
  int population = 48;
  int generations = 40;
  double crossover_prob = 0.9;
  double mutation_prob = 0.0;  // 0 = use 1/num_vars
  double eta_crossover = 15.0; // SBX distribution index
  double eta_mutation = 20.0;  // polynomial mutation index
  uint64_t seed = 7;
};

/// The two objective values of a candidate, both minimized. Every caller
/// optimizes exactly two — the paper's (ResourceCost, 1/ThroughputGain) —
/// so they are stored inline and the sort can use the two-objective sweep.
using Objectives = std::array<double, 2>;

/// A candidate solution with its objective vector.
struct Nsga2Individual {
  std::vector<double> x;
  Objectives objectives{};
  int rank = 0;
  double crowding = 0.0;
};

/// NSGA-II (Deb et al.) for two objectives, with no external library:
/// non-dominated sorting, crowding-distance diversity preservation, binary
/// tournament selection, simulated binary crossover, polynomial mutation.
/// The paper uses NSGA-II to generate the Pareto frontier of job resource
/// plans over the (ResourceCost, 1/ThroughputGain) objectives.
class Nsga2 {
 public:
  /// Objective function: maps a decision vector to its two objective
  /// values, both to be minimized. Must be deterministic and NaN-free.
  using ObjectiveFn = std::function<Objectives(const std::vector<double>&)>;

  Nsga2(std::vector<DecisionBounds> bounds, ObjectiveFn objective,
        const Nsga2Options& options);

  /// Runs the evolution and returns the final first (non-dominated) front,
  /// deduplicated by decision vector.
  std::vector<Nsga2Individual> Run();

  /// Non-dominated sort in O(n log n) (sort-and-sweep, Jensen 2003).
  /// Returns fronts of indices into `objectives`, best front first, in
  /// exactly the order of Deb's all-pairs algorithm: front 0 ascends by
  /// index; a member j of front k+1 is keyed by (p, j), where p is the
  /// largest position within front k of a front-k point dominating j.
  /// Equal objective vectors never dominate each other. Exposed for tests.
  static std::vector<std::vector<size_t>> NonDominatedSort(
      const std::vector<Objectives>& objectives);

  /// Crowding distance of each member of one front (larger = lonelier).
  /// Exposed for tests.
  static std::vector<double> CrowdingDistances(
      const std::vector<Objectives>& objectives,
      const std::vector<size_t>& front);

  /// True if `a` Pareto-dominates `b` (<= everywhere, < somewhere).
  static bool Dominates(const Objectives& a, const Objectives& b);

 private:
  /// Working memory of one sort, reused across calls. The fronts come out
  /// concatenated in `fronts`; front k is [front_begin[k], front_begin[k+1]).
  struct SortBuffers {
    std::vector<size_t> fronts;
    std::vector<size_t> front_begin;
    std::vector<size_t> lex;     // indices by (f0, f1, index)
    std::vector<size_t> stairs;  // each front's members in lex order
    std::vector<int> rank;
    std::vector<size_t> pos;     // position within its front
    std::vector<double> min_f1;  // per front, the least f1 swept so far
    std::vector<size_t> cursor;
    std::vector<size_t> table;   // sparse table of max positions

    /// Makes room for sorts of up to `n` points, so they never allocate.
    void Reserve(size_t n);
  };
  static void SortFronts(std::span<const Objectives> objs, SortBuffers& buf);
  /// Writes the crowding distance of front[i] to distance[i]; `order` is
  /// working space of the front's size.
  static void Crowding(std::span<const Objectives> objs,
                       std::span<const size_t> front,
                       std::span<size_t> order, std::span<double> distance);

  void RandomVector(std::vector<double>& x);
  void Clamp(std::vector<double>& x) const;
  /// Binary tournament over the current population, combined_[0, n).
  size_t TournamentPick(size_t n);
  void SbxCrossover(const std::vector<double>& p1,
                    const std::vector<double>& p2, std::vector<double>& c1,
                    std::vector<double>& c2);
  void PolynomialMutation(std::vector<double>& x);
  /// Ranks the population combined_[0, n) and sets each member's crowding
  /// distance within its front.
  void AssignRankAndCrowding(size_t n);

  std::vector<DecisionBounds> bounds_;
  ObjectiveFn objective_;
  Nsga2Options options_;
  Rng rng_;

  // Generation buffers, sized once per Run(). combined_ holds the
  // population in [0, n) and its offspring in [n, 2n); selection swaps the
  // survivors into selected_, and the two then trade places.
  std::vector<Nsga2Individual> combined_;
  std::vector<Nsga2Individual> selected_;
  std::vector<double> spare_x_;  // the odd last child, discarded
  std::vector<Objectives> objs_;
  std::vector<double> crowding_;
  std::vector<size_t> order_;
  SortBuffers sort_;
};

}  // namespace dlrover

#endif  // DLROVER_BRAIN_NSGA2_H_
