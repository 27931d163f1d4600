#include "brain/nsga2.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <limits>
#include <numeric>

namespace dlrover {

Nsga2::Nsga2(std::vector<DecisionBounds> bounds, ObjectiveFn objective,
             const Nsga2Options& options)
    : bounds_(std::move(bounds)),
      objective_(std::move(objective)),
      options_(options),
      rng_(options.seed) {
  assert(!bounds_.empty());
  if (options_.mutation_prob <= 0.0) {
    options_.mutation_prob = 1.0 / static_cast<double>(bounds_.size());
  }
}

bool Nsga2::Dominates(const Objectives& a, const Objectives& b) {
  return a[0] <= b[0] && a[1] <= b[1] && (a[0] < b[0] || a[1] < b[1]);
}

void Nsga2::SortBuffers::Reserve(size_t n) {
  for (auto* v : {&fronts, &lex, &stairs, &pos, &cursor}) v->reserve(n);
  front_begin.reserve(n + 1);
  rank.reserve(n);
  min_f1.reserve(n);
  table.reserve(n * static_cast<size_t>(std::bit_width(n)));
}

void Nsga2::SortFronts(std::span<const Objectives> objs, SortBuffers& buf) {
  const size_t n = objs.size();
  buf.fronts.resize(n);
  buf.front_begin.assign(1, 0);
  if (n == 0) return;

  // Lexicographic order, index last: equal vectors become adjacent, and
  // every point that dominates q comes before q.
  buf.lex.resize(n);
  std::iota(buf.lex.begin(), buf.lex.end(), size_t{0});
  std::sort(buf.lex.begin(), buf.lex.end(), [&](size_t a, size_t b) {
    if (objs[a][0] != objs[b][0]) return objs[a][0] < objs[b][0];
    if (objs[a][1] != objs[b][1]) return objs[a][1] < objs[b][1];
    return a < b;
  });

  // Sweep. A point swept earlier and not equal to q dominates q iff its f1
  // is <= q's, so q's rank (one past its dominators' highest) is the number
  // of fronts whose least f1 so far is <= q's f1. Those least values rise
  // with the front, so a binary search finds it. Equal vectors share a rank.
  buf.rank.resize(n);
  buf.min_f1.clear();
  for (size_t s = 0; s < n;) {
    const Objectives& q = objs[buf.lex[s]];
    const size_t r = static_cast<size_t>(
        std::upper_bound(buf.min_f1.begin(), buf.min_f1.end(), q[1]) -
        buf.min_f1.begin());
    if (r == buf.min_f1.size()) {
      buf.min_f1.push_back(q[1]);
    } else {
      buf.min_f1[r] = q[1];
    }
    do {
      buf.rank[buf.lex[s++]] = static_cast<int>(r);
    } while (s < n && objs[buf.lex[s]] == q);
  }
  const size_t num_fronts = buf.min_f1.size();

  // Bucket by rank: `fronts` in ascending index, `stairs` in lex order.
  buf.front_begin.assign(num_fronts + 1, 0);
  for (size_t i = 0; i < n; ++i) ++buf.front_begin[buf.rank[i] + 1];
  std::partial_sum(buf.front_begin.begin(), buf.front_begin.end(),
                   buf.front_begin.begin());
  buf.cursor.assign(buf.front_begin.begin(), buf.front_begin.end() - 1);
  for (size_t i = 0; i < n; ++i) buf.fronts[buf.cursor[buf.rank[i]]++] = i;
  buf.cursor.assign(buf.front_begin.begin(), buf.front_begin.end() - 1);
  buf.stairs.resize(n);
  for (size_t j : buf.lex) buf.stairs[buf.cursor[buf.rank[j]]++] = j;

  // Front 0 is in Deb's order already. Deb's loop appends j to front k+1
  // when it visits j's last front-k dominator, so front k+1 is ordered by
  // (p, j), p the highest front-k position among j's dominators. Within a
  // front in lex order f1 falls as f0 rises, so j's dominators there form
  // one run of the staircase: a range-max query over positions finds p.
  buf.pos.resize(n);
  for (size_t k = 0; k < num_fronts; ++k) {
    const size_t begin = buf.front_begin[k];
    const size_t m = buf.front_begin[k + 1] - begin;
    for (size_t t = 0; t < m; ++t) buf.pos[buf.fronts[begin + t]] = t;
    if (k + 1 == num_fronts) break;

    const size_t* stair = buf.stairs.data() + begin;
    const size_t levels = static_cast<size_t>(std::bit_width(m));
    buf.table.resize(levels * m);
    size_t* table = buf.table.data();
    for (size_t t = 0; t < m; ++t) table[t] = buf.pos[stair[t]];
    for (size_t l = 1; l < levels; ++l) {
      const size_t half = size_t{1} << (l - 1);
      for (size_t t = 0; t + 2 * half <= m; ++t) {
        table[l * m + t] = std::max(table[(l - 1) * m + t],
                                    table[(l - 1) * m + t + half]);
      }
    }

    const auto next_begin = buf.fronts.begin() + buf.front_begin[k + 1];
    const auto next_end = buf.fronts.begin() + buf.front_begin[k + 2];
    for (auto it = next_begin; it != next_end; ++it) {
      const size_t j = *it;
      const Objectives& q = objs[j];
      const size_t lo = static_cast<size_t>(
          std::partition_point(stair, stair + m,
                               [&](size_t s) { return objs[s][1] > q[1]; }) -
          stair);
      const size_t hi = static_cast<size_t>(
          std::partition_point(stair, stair + m,
                               [&](size_t s) { return objs[s][0] <= q[0]; }) -
          stair);
      assert(lo < hi);
      const size_t l = static_cast<size_t>(std::bit_width(hi - lo)) - 1;
      const size_t p = std::max(table[l * m + lo],
                                table[l * m + hi - (size_t{1} << l)]);
      *it = p * n + j;
    }
    std::sort(next_begin, next_end);
    for (auto it = next_begin; it != next_end; ++it) *it %= n;
  }
}

std::vector<std::vector<size_t>> Nsga2::NonDominatedSort(
    const std::vector<Objectives>& objectives) {
  SortBuffers buf;
  SortFronts(objectives, buf);
  std::vector<std::vector<size_t>> fronts;
  for (size_t k = 0; k + 1 < buf.front_begin.size(); ++k) {
    fronts.emplace_back(buf.fronts.begin() + buf.front_begin[k],
                        buf.fronts.begin() + buf.front_begin[k + 1]);
  }
  return fronts;
}

void Nsga2::Crowding(std::span<const Objectives> objs,
                     std::span<const size_t> front, std::span<size_t> order,
                     std::span<double> distance) {
  const size_t n = front.size();
  std::fill(distance.begin(), distance.end(), 0.0);
  if (n == 0) return;
  for (size_t obj = 0; obj < 2; ++obj) {
    std::iota(order.begin(), order.end(), size_t{0});
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return objs[front[a]][obj] < objs[front[b]][obj];
    });
    distance[order.front()] = std::numeric_limits<double>::infinity();
    distance[order.back()] = std::numeric_limits<double>::infinity();
    const double span =
        objs[front[order.back()]][obj] - objs[front[order.front()]][obj];
    if (span <= 0.0) continue;
    for (size_t i = 1; i + 1 < n; ++i) {
      distance[order[i]] += (objs[front[order[i + 1]]][obj] -
                             objs[front[order[i - 1]]][obj]) /
                            span;
    }
  }
}

std::vector<double> Nsga2::CrowdingDistances(
    const std::vector<Objectives>& objectives,
    const std::vector<size_t>& front) {
  std::vector<size_t> order(front.size());
  std::vector<double> distance(front.size());
  Crowding(objectives, front, order, distance);
  return distance;
}

void Nsga2::RandomVector(std::vector<double>& x) {
  for (size_t i = 0; i < bounds_.size(); ++i) {
    x[i] = rng_.Uniform(bounds_[i].lo, bounds_[i].hi);
  }
  Clamp(x);
}

void Nsga2::Clamp(std::vector<double>& x) const {
  for (size_t i = 0; i < bounds_.size(); ++i) {
    x[i] = std::clamp(x[i], bounds_[i].lo, bounds_[i].hi);
    if (bounds_[i].integer) x[i] = std::round(x[i]);
  }
}

void Nsga2::AssignRankAndCrowding(size_t n) {
  for (size_t i = 0; i < n; ++i) objs_[i] = combined_[i].objectives;
  const std::span<const Objectives> objs(objs_.data(), n);
  SortFronts(objs, sort_);
  for (size_t k = 0; k + 1 < sort_.front_begin.size(); ++k) {
    const size_t begin = sort_.front_begin[k];
    const size_t m = sort_.front_begin[k + 1] - begin;
    const std::span<const size_t> front(sort_.fronts.data() + begin, m);
    Crowding(objs, front, std::span(order_).first(m),
             std::span(crowding_).first(m));
    for (size_t i = 0; i < m; ++i) {
      combined_[front[i]].rank = static_cast<int>(k);
      combined_[front[i]].crowding = crowding_[i];
    }
  }
}

size_t Nsga2::TournamentPick(size_t n) {
  const size_t a = rng_.UniformInt(n);
  const size_t b = rng_.UniformInt(n);
  const Nsga2Individual& ia = combined_[a];
  const Nsga2Individual& ib = combined_[b];
  if (ia.rank != ib.rank) return ia.rank < ib.rank ? a : b;
  return ia.crowding >= ib.crowding ? a : b;
}

void Nsga2::SbxCrossover(const std::vector<double>& p1,
                         const std::vector<double>& p2,
                         std::vector<double>& c1, std::vector<double>& c2) {
  c1 = p1;
  c2 = p2;
  if (!rng_.Bernoulli(options_.crossover_prob)) return;
  for (size_t i = 0; i < bounds_.size(); ++i) {
    if (!rng_.Bernoulli(0.5)) continue;
    const double u = rng_.Uniform();
    const double eta = options_.eta_crossover;
    const double beta =
        u <= 0.5 ? std::pow(2.0 * u, 1.0 / (eta + 1.0))
                 : std::pow(1.0 / (2.0 * (1.0 - u)), 1.0 / (eta + 1.0));
    const double x1 = p1[i];
    const double x2 = p2[i];
    c1[i] = 0.5 * ((1.0 + beta) * x1 + (1.0 - beta) * x2);
    c2[i] = 0.5 * ((1.0 - beta) * x1 + (1.0 + beta) * x2);
  }
  Clamp(c1);
  Clamp(c2);
}

void Nsga2::PolynomialMutation(std::vector<double>& x) {
  for (size_t i = 0; i < bounds_.size(); ++i) {
    if (!rng_.Bernoulli(options_.mutation_prob)) continue;
    const double span = bounds_[i].hi - bounds_[i].lo;
    if (span <= 0.0) continue;
    const double u = rng_.Uniform();
    const double eta = options_.eta_mutation;
    const double delta =
        u < 0.5 ? std::pow(2.0 * u, 1.0 / (eta + 1.0)) - 1.0
                 : 1.0 - std::pow(2.0 * (1.0 - u), 1.0 / (eta + 1.0));
    x[i] += delta * span;
  }
  Clamp(x);
}

std::vector<Nsga2Individual> Nsga2::Run() {
  const size_t n = static_cast<size_t>(options_.population);
  const size_t dims = bounds_.size();
  for (auto* buffer : {&combined_, &selected_}) {
    buffer->resize(2 * n);
    for (Nsga2Individual& ind : *buffer) ind.x.resize(dims);
  }
  spare_x_.resize(dims);
  sort_.Reserve(2 * n);
  objs_.resize(2 * n);
  crowding_.resize(2 * n);
  order_.resize(2 * n);

  for (size_t i = 0; i < n; ++i) {
    RandomVector(combined_[i].x);
    combined_[i].objectives = objective_(combined_[i].x);
  }
  AssignRankAndCrowding(n);

  for (int gen = 0; gen < options_.generations; ++gen) {
    // Offspring fill combined_[n, 2n); with an odd population the last
    // pair's second child is still bred (it draws from the RNG stream) but
    // then discarded.
    for (size_t made = 0; made < n; made += 2) {
      const Nsga2Individual& p1 = combined_[TournamentPick(n)];
      const Nsga2Individual& p2 = combined_[TournamentPick(n)];
      std::vector<double>& c1 = combined_[n + made].x;
      std::vector<double>& c2 =
          made + 1 < n ? combined_[n + made + 1].x : spare_x_;
      SbxCrossover(p1.x, p2.x, c1, c2);
      PolynomialMutation(c1);
      PolynomialMutation(c2);
    }
    for (size_t i = n; i < 2 * n; ++i) {
      combined_[i].objectives = objective_(combined_[i].x);
    }

    // Environmental selection over the combined population: whole fronts
    // while they fit, then the least crowded of the front that does not.
    for (size_t i = 0; i < 2 * n; ++i) objs_[i] = combined_[i].objectives;
    SortFronts(objs_, sort_);
    size_t taken = 0;
    for (size_t k = 0; k + 1 < sort_.front_begin.size(); ++k) {
      if (taken >= n) break;
      const size_t begin = sort_.front_begin[k];
      const size_t m = sort_.front_begin[k + 1] - begin;
      const std::span<const size_t> front(sort_.fronts.data() + begin, m);
      if (taken + m <= n) {
        for (size_t i : front) std::swap(selected_[taken++], combined_[i]);
        continue;
      }
      const std::span<double> crowding = std::span(crowding_).first(m);
      const std::span<size_t> order = std::span(order_).first(m);
      Crowding(objs_, front, order, crowding);
      std::iota(order.begin(), order.end(), size_t{0});
      std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        return crowding[a] > crowding[b];
      });
      for (size_t i : order) {
        if (taken >= n) break;
        std::swap(selected_[taken++], combined_[front[i]]);
      }
    }
    std::swap(combined_, selected_);
    AssignRankAndCrowding(n);
  }

  // Collect the final non-dominated front, deduplicated by decision vector.
  std::vector<Nsga2Individual> front;
  for (size_t i = 0; i < n; ++i) {
    const Nsga2Individual& ind = combined_[i];
    if (ind.rank != 0) continue;
    if (std::any_of(front.begin(), front.end(),
                    [&](const Nsga2Individual& f) { return f.x == ind.x; })) {
      continue;
    }
    front.push_back(ind);
  }
  return front;
}

}  // namespace dlrover
