#include "channel/batch_interference.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <future>
#include <optional>
#include <unordered_map>

#include "mathx/summation.hpp"
#include "util/thread_pool.hpp"

namespace fadesched::channel {

HalfPowerKernel::HalfPowerKernel(double alpha) : half_alpha_(alpha / 2.0) {
  // Exponent on d² in quarter units: d²^(q/4) = d^(q/2) = d^α ⇒ q = 2α.
  const double q_real = 2.0 * alpha;
  const double q_round = std::round(q_real);
  if (std::abs(q_real - q_round) < 1e-9 && q_round >= 1.0 && q_round <= 64.0) {
    const int q = static_cast<int>(q_round);
    whole_ = q / 4;
    use_sqrt_ = ((q >> 1) & 1) != 0;
    use_quarter_ = (q & 1) != 0;
  } else {
    generic_ = true;
  }
}

std::vector<double> MeanRxPowerTable(const net::LinkSet& links,
                                     const ChannelParams& params,
                                     std::span<const net::LinkId> ids) {
  const std::size_t m = ids.size();
  std::vector<char> seen(links.Size(), 0);
  for (const net::LinkId id : ids) {
    FS_CHECK_MSG(id < links.Size(), "schedule link id out of range");
    FS_CHECK_MSG(!seen[id], "schedule lists a link id twice");
    seen[id] = 1;
  }
  const HalfPowerKernel kernel(params.alpha);
  std::vector<double> mean(m * m);
  for (std::size_t a = 0; a < m; ++a) {
    const double power = links.EffectiveTxPower(ids[a], params.tx_power);
    const geom::Vec2 s = links.Sender(ids[a]);
    for (std::size_t b = 0; b < m; ++b) {
      const geom::Vec2 r = links.Receiver(ids[b]);
      const double dx = s.x - r.x;
      const double dy = s.y - r.y;
      const double d2 = dx * dx + dy * dy;
      FS_CHECK_MSG(d2 > 0.0, "sender coincides with a scheduled receiver");
      mean[a * m + b] = power / kernel.DistPowAlpha(d2);
    }
  }
  return mean;
}

InterferenceEngine::InterferenceEngine(const net::LinkSet& links,
                                       const ChannelParams& params,
                                       EngineOptions options)
    : links_(&links),
      options_(options),
      calc_(links, params),  // validates params
      det_(links, params),
      kernel_(params.alpha),
      n_(links.Size()) {
  const ChannelParams& p = calc_.Params();
  sender_x_.resize(n_);
  sender_y_.resize(n_);
  receiver_x_.resize(n_);
  receiver_y_.resize(n_);
  power_.resize(n_);
  victim_coeff_.resize(n_);
  noise_factor_.resize(n_);
  for (net::LinkId j = 0; j < n_; ++j) {
    const geom::Vec2 s = links.Sender(j);
    const geom::Vec2 r = links.Receiver(j);
    sender_x_[j] = s.x;
    sender_y_[j] = s.y;
    receiver_x_[j] = r.x;
    receiver_y_[j] = r.y;
    power_[j] = links.EffectiveTxPower(j, p.tx_power);
    victim_coeff_[j] =
        p.gamma_th * std::pow(links.Length(j), p.alpha) / power_[j];
    noise_factor_[j] = calc_.NoiseFactor(j);
  }

  if (options_.backend == FactorBackend::kMatrix && n_ > 0) {
    if (options_.affectance_matrix) {
      affectance_data_ = BuildMatrixData(/*affectance=*/true);
    } else {
      factor_matrix_ = std::make_unique<InterferenceMatrix>(
          n_, BuildMatrixData(/*affectance=*/false));
    }
  }
}

InterferenceEngine::InterferenceEngine(
    std::shared_ptr<const InterferenceEngine> parent,
    const net::LinkSet& subset_links, std::span<const net::LinkId> ids)
    : links_(&subset_links),
      options_(parent->options_),
      calc_(subset_links, parent->Params()),
      det_(subset_links, parent->Params()),
      kernel_(parent->kernel_),
      n_(ids.size()) {
  FS_CHECK_MSG(subset_links.Size() == ids.size(),
               "subset view: LinkSet size does not match id count");
  // A view must never pin a third engine alive, and has nothing left to
  // build in parallel.
  options_.shared.reset();
  options_.pool = nullptr;

  sender_x_.resize(n_);
  sender_y_.resize(n_);
  receiver_x_.resize(n_);
  receiver_y_.resize(n_);
  power_.resize(n_);
  victim_coeff_.resize(n_);
  noise_factor_.resize(n_);
  for (std::size_t k = 0; k < n_; ++k) {
    const net::LinkId id = ids[k];
    FS_CHECK_MSG(id < parent->n_, "subset view: link id out of parent range");
    // `subset_links` must be parent->Links().Subset(ids): Subset() copies
    // coordinates bitwise, so exact equality is the correct test.
    const geom::Vec2 s = subset_links.Sender(k);
    const geom::Vec2 r = subset_links.Receiver(k);
    FS_CHECK_MSG(s.x == parent->sender_x_[id] && s.y == parent->sender_y_[id] &&
                     r.x == parent->receiver_x_[id] &&
                     r.y == parent->receiver_y_[id],
                 "subset view: link geometry does not match parent");
    FS_CHECK_MSG(subset_links.EffectiveTxPower(k, parent->Params().tx_power) ==
                     parent->power_[id],
                 "subset view: link power does not match parent");
    sender_x_[k] = parent->sender_x_[id];
    sender_y_[k] = parent->sender_y_[id];
    receiver_x_[k] = parent->receiver_x_[id];
    receiver_y_[k] = parent->receiver_y_[id];
    power_[k] = parent->power_[id];
    victim_coeff_[k] = parent->victim_coeff_[id];
    noise_factor_[k] = parent->noise_factor_[id];
  }

  // Views of views collapse to one indirection: remap through the
  // intermediate view and adopt its parent, so a chain of per-slot
  // subsets never degrades query cost.
  if (parent->IsSubsetView()) {
    remap_.resize(n_);
    for (std::size_t k = 0; k < n_; ++k) remap_[k] = parent->remap_[ids[k]];
    parent_ = parent->parent_;
  } else {
    remap_.assign(ids.begin(), ids.end());
    parent_ = std::move(parent);
  }
}

double InterferenceEngine::Factor(net::LinkId interferer,
                                  net::LinkId victim) const {
  if (interferer == victim) return 0.0;
  switch (options_.backend) {
    case FactorBackend::kCalculator:
      return calc_.Factor(interferer, victim);
    case FactorBackend::kMatrix:
      if (parent_ != nullptr) {
        // Subset view: remap into the parent's materialized data.
        const net::LinkId pi = remap_[interferer];
        const net::LinkId pj = remap_[victim];
        if (parent_->factor_matrix_) {
          return parent_->factor_matrix_->Factor(pi, pj);
        }
        if (!parent_->affectance_data_.empty()) {
          return std::log1p(
              parent_->affectance_data_[pj * parent_->n_ + pi]);
        }
        break;  // parent matrix elided (empty set) — fall through to tables
      }
      if (factor_matrix_) return factor_matrix_->Factor(interferer, victim);
      if (!affectance_data_.empty()) {
        return std::log1p(affectance_data_[victim * n_ + interferer]);
      }
      break;  // matrix elided (empty set) — fall through to tables
    case FactorBackend::kTables:
      break;
  }
  return std::log1p(FastAffectance(interferer, victim));
}

double InterferenceEngine::Affectance(net::LinkId interferer,
                                      net::LinkId victim) const {
  if (interferer == victim) return 0.0;
  switch (options_.backend) {
    case FactorBackend::kCalculator:
      return det_.Affectance(interferer, victim);
    case FactorBackend::kMatrix:
      if (parent_ != nullptr) {
        if (!parent_->affectance_data_.empty()) {
          return parent_->affectance_data_[remap_[victim] * parent_->n_ +
                                           remap_[interferer]];
        }
        break;  // factor matrix materialized — recompute from tables
      }
      if (!affectance_data_.empty()) {
        return affectance_data_[victim * n_ + interferer];
      }
      break;  // factor matrix materialized — recompute from tables
    case FactorBackend::kTables:
      break;
  }
  return FastAffectance(interferer, victim);
}

double InterferenceEngine::SumFactor(std::span<const net::LinkId> schedule,
                                     net::LinkId victim) const {
  mathx::NeumaierSum sum;
  for (net::LinkId i : schedule) {
    if (i == victim) continue;
    sum.Add(Factor(i, victim));
  }
  return sum.Total();
}

void InterferenceEngine::CheckNoCoincidentPairs() const {
  // d² = dx² + dy² is 0 only when |dx| and |dy| are below 2⁻⁵³⁷, and two
  // distinct doubles that close both lie below 2⁻⁴⁸⁰ in magnitude.
  // Snapping those to 0 gives every such pair one key; FastAffectance
  // then tests each candidate exactly (a hash collision only costs it).
  const auto snap = [](double v) {
    return std::bit_cast<std::uint64_t>(std::abs(v) <= 0x1p-480 ? 0.0 : v);
  };
  const auto key = [&](double x, double y) {
    return snap(x) * 0x9e3779b97f4a7c15ull ^ snap(y);
  };
  std::unordered_multimap<std::uint64_t, net::LinkId> receivers;
  receivers.reserve(n_);
  for (net::LinkId j = 0; j < n_; ++j) {
    receivers.emplace(key(receiver_x_[j], receiver_y_[j]), j);
  }
  for (net::LinkId i = 0; i < n_; ++i) {
    const auto [begin, end] = receivers.equal_range(key(sender_x_[i],
                                                        sender_y_[i]));
    for (auto it = begin; it != end; ++it) {
      if (it->second != i) static_cast<void>(FastAffectance(i, it->second));
    }
  }
}

void InterferenceEngine::FillTile(bool affectance, std::size_t row_begin,
                                  std::size_t row_end, double* data) const {
  for (std::size_t j = row_begin; j < row_end; ++j) {
    double* row = data + j * n_;
    for (std::size_t i = 0; i < n_; ++i) {
      // The diagonal is written too (log1p(0) = 0): the buffer is raw.
      const double a = i == j ? 0.0 : FastAffectance(i, j);
      row[i] = affectance ? a : std::log1p(a);
    }
  }
}

FactorBuffer InterferenceEngine::BuildMatrixData(bool affectance) const {
  FactorBuffer data;
  if (n_ == 0) return data;

  // The tile loop writes every entry (diagonal included), so the buffer
  // stays uninitialized — the allocator's default-init resize() skips a
  // full zero-fill pass over the O(N²) working set, and a recycled block
  // may still hold an earlier matrix's bits.
  data.resize(n_ * n_);

  const std::size_t tile = std::max<std::size_t>(1, options_.tile_rows);
  const std::size_t num_tiles = (n_ + tile - 1) / tile;
  const auto run_tile = [&](std::size_t t) {
    const std::size_t row_begin = t * tile;
    FillTile(affectance, row_begin, std::min(n_, row_begin + tile),
             data.data());
  };
  if (options_.pool == nullptr) {
    for (std::size_t t = 0; t < num_tiles; ++t) run_tile(t);
  } else {
    // Tiles own disjoint row ranges, so workers never write the same
    // element and the result is identical for any thread count.
    std::vector<std::future<void>> futures;
    futures.reserve(num_tiles);
    for (std::size_t t = 0; t < num_tiles; ++t) {
      futures.push_back(options_.pool->Submit([&run_tile, t] { run_tile(t); }));
    }
    util::WaitAll(futures).Rethrow();
  }
  return data;
}

IncrementalFeasibility::IncrementalFeasibility(const InterferenceEngine& engine,
                                               Quantity quantity)
    : engine_(&engine),
      quantity_(quantity),
      noise_(engine.noise_factor_),
      sum_(engine.Size(), 0.0),
      comp_(engine.Size(), 0.0),
      level_(ResolveSimdLevel(SimdLevel::kAuto)),
      lanes_(simd::LaneCount(level_)),
      lane_terms_(level_ != SimdLevel::kScalar &&
                  engine.Backend() == FactorBackend::kTables &&
                  engine.kernel_.IsSpecialized() &&
                  (quantity == Quantity::kAffectance ||
                   simd::Log1pLanesMatchLibm())) {}

double IncrementalFeasibility::Term(net::LinkId i, net::LinkId j) const {
  return quantity_ == Quantity::kFactor ? engine_->Factor(i, j)
                                        : engine_->Affectance(i, j);
}

void IncrementalFeasibility::AddTerm(net::LinkId j, double value) {
  const double t = sum_[j] + value;
  if (std::abs(sum_[j]) >= std::abs(value)) {
    comp_[j] += (sum_[j] - t) + value;
  } else {
    comp_[j] += (value - t) + sum_[j];
  }
  sum_[j] = t;
}

simd::TermSource IncrementalFeasibility::Source(net::LinkId interferer) const {
  const InterferenceEngine& e = *engine_;
  simd::TermSource source;
  source.rx = e.receiver_x_.data();
  source.ry = e.receiver_y_.data();
  source.coeff = e.victim_coeff_.data();
  source.sx = e.sender_x_[interferer];
  source.sy = e.sender_y_[interferer];
  source.power = e.power_[interferer];
  source.spec = {e.kernel_.WholeSteps(), e.kernel_.UsesSqrt(),
                 e.kernel_.UsesQuarter(), quantity_ == Quantity::kAffectance};
  return source;
}

void IncrementalFeasibility::AddAndPruneScalar(net::LinkId interferer,
                                               char* alive, double budget,
                                               std::size_t begin,
                                               std::size_t end) {
  for (net::LinkId j = begin; j < end; ++j) {
    if (j == interferer || !alive[j]) continue;
    AddTerm(j, Term(interferer, j));
    if (Sum(j) > budget) alive[j] = 0;
  }
}

void IncrementalFeasibility::AddAndPrune(net::LinkId interferer,
                                         std::span<char> alive,
                                         double budget) {
  const std::size_t n = sum_.size();
  FS_CHECK_MSG(alive.size() == n, "alive mask size does not match the engine");
  std::size_t j = 0;
  if (lane_terms_) {
    const simd::TermSource source = Source(interferer);
    const simd::NeumaierSums<double> sums{noise_.data(), sum_.data(),
                                          comp_.data()};
    for (;;) {
      j = simd::AccumulateLanes(level_, source, sums, alive.data(),
                                interferer, budget, j, n);
      if (j + lanes_ > n) break;
      AddAndPruneScalar(interferer, alive.data(), budget, j, j + lanes_);
      j += lanes_;
    }
  }
  AddAndPruneScalar(interferer, alive.data(), budget, j, n);
}

bool IncrementalFeasibility::AnyOverWith(net::LinkId extra,
                                         std::span<const net::LinkId> victims,
                                         double budget) const {
  const auto any_over = [&](std::size_t begin, std::size_t end) {
    for (std::size_t k = begin; k < end; ++k) {
      const net::LinkId v = victims[k];
      if (Sum(v) + (v == extra ? 0.0 : Term(extra, v)) > budget) return true;
    }
    return false;
  };
  std::size_t k = 0;
  if (lane_terms_) {
    const simd::TermSource source = Source(extra);
    const simd::NeumaierSums<const double> sums{noise_.data(), sum_.data(),
                                                comp_.data()};
    for (;;) {
      bool over = false;
      k = simd::AnyOverLanes(level_, source, sums, victims.data(), extra,
                             budget, k, victims.size(), over);
      if (over) return true;
      if (k + lanes_ > victims.size()) break;
      if (any_over(k, k + lanes_)) return true;
      k += lanes_;
    }
  }
  return any_over(k, victims.size());
}

std::shared_ptr<const InterferenceEngine> MakeSubsetEngineView(
    std::shared_ptr<const InterferenceEngine> parent,
    const net::LinkSet& subset_links, std::span<const net::LinkId> ids) {
  FS_CHECK_MSG(parent != nullptr, "subset view requires a parent engine");
  return std::make_shared<const InterferenceEngine>(std::move(parent),
                                                    subset_links, ids);
}

const InterferenceEngine& ObtainEngine(
    const net::LinkSet& links, const ChannelParams& params,
    const EngineOptions& options, std::optional<InterferenceEngine>& local) {
  const InterferenceEngine* shared = options.shared.get();
  if (shared != nullptr && &shared->Links() == &links &&
      shared->Params() == params) {
    // The build-only knobs (pool, tile_rows) never change results, so only
    // the result-bearing configuration must match for reuse to be exact.
    // Affectance shapes only a materialized matrix; the other backends
    // derive both quantities on the fly.
    const EngineOptions& built = shared->Options();
    if (built.backend == options.backend &&
        (options.backend != FactorBackend::kMatrix ||
         built.affectance_matrix == options.affectance_matrix)) {
      return *shared;
    }
  }
  // Drop the rejected shared engine before building locally, so the local
  // engine's stored options don't pin someone else's tables alive.
  EngineOptions fresh = options;
  fresh.shared.reset();
  local.emplace(links, params, std::move(fresh));
  return *local;
}

}  // namespace fadesched::channel
