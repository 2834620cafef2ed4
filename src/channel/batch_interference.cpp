#include "channel/batch_interference.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <future>
#include <limits>
#include <optional>

#include "channel/simd_kernel.hpp"
#include "mathx/summation.hpp"
#include "mathx/ulp.hpp"
#include "rng/splitmix64.hpp"
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
      affectance_data_ = BuildMatrixData(/*affectance=*/true, ladder_stats_);
    } else {
      factor_matrix_ = std::make_unique<InterferenceMatrix>(
          n_, BuildMatrixData(/*affectance=*/false, ladder_stats_));
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

  // The ladder stats describe the parent's build the view reads.
  ladder_stats_ = parent->ladder_stats_;

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

std::size_t InterferenceEngine::FillFastTile(bool affectance, SimdLevel level,
                                             std::size_t row_begin,
                                             std::size_t row_end,
                                             double* data) const {
  const simd::RowKernelSpec spec{kernel_.WholeSteps(), kernel_.UsesSqrt(),
                                 kernel_.UsesQuarter(), affectance};
  const double* sx = sender_x_.data();
  const double* sy = sender_y_.data();
  const double* pw = power_.data();
  // The kernel accumulates a per-row "wrote a non-finite value" flag
  // in-register, so the rung-1 scan below touches only flagged rows —
  // on clean geometry the O(N²) output, freshly streamed past the cache
  // to DRAM, is never read back during the build.
  std::vector<std::size_t> flagged;
  std::size_t j = row_begin;
  for (; j + 2 <= row_end; j += 2) {
    const double rx[2] = {receiver_x_[j], receiver_x_[j + 1]};
    const double ry[2] = {receiver_y_[j], receiver_y_[j + 1]};
    const double coeff[2] = {victim_coeff_[j], victim_coeff_[j + 1]};
    if (simd::FillFastRowPair(level, spec, sx, sy, pw, rx, ry, coeff, n_,
                              data + j * n_, data + (j + 1) * n_)) {
      flagged.push_back(j);
      flagged.push_back(j + 1);
    }
  }
  for (; j < row_end; ++j) {
    if (simd::FillFastRow(level, spec, sx, sy, pw, receiver_x_[j],
                          receiver_y_[j], victim_coeff_[j], n_,
                          data + j * n_)) {
      flagged.push_back(j);
    }
  }
  // Drain the streaming stores before this core reads flagged rows back
  // (and before the tile is published to other threads via the pool's
  // future synchronization).
  simd::StoreFence();

  for (j = row_begin; j < row_end; ++j) data[j * n_ + j] = 0.0;

  // Ladder rung 1 (domain): the fast kernel passes non-finite lanes
  // through untouched — coincident positions and d^α overflow at extreme
  // geometry surface as inf/NaN and flag their row. Recompute every
  // non-finite entry exactly; FastAffectance re-raises the exact build's
  // FS_CHECK on coincident positions. (The diagonal is finite in the fast
  // expression — d_jj is the link length — and zeroed above, so it never
  // flags a row by itself.)
  std::size_t promoted = 0;
  for (const std::size_t row_j : flagged) {
    double* row = data + row_j * n_;
    for (std::size_t i = 0; i < n_; ++i) {
      if (i == row_j || std::isfinite(row[i])) continue;
      const double a = FastAffectance(i, row_j);
      row[i] = affectance ? a : std::log1p(a);
      ++promoted;
    }
  }
  return promoted;
}

void InterferenceEngine::VerifyLadder(bool affectance, double* data,
                                      LadderStats& stats) const {
  const PrecisionLadderOptions& ladder = options_.ladder;
  if (n_ < 2) return;
  const std::size_t off_diag = n_ * (n_ - 1);

  // Rung 2 (entry): recompute a seeded sample — or everything — through
  // the exact expression; promote whatever sits outside the ULP band.
  // Bit equality is checked before UlpDistance so entries the domain rung
  // already promoted (possibly to ±inf, where UlpDistance saturates)
  // count as distance zero.
  const auto check_entry = [&](std::size_t i, std::size_t j) {
    double* slot = data + j * n_ + i;
    const double a = FastAffectance(i, j);
    const double want = affectance ? a : std::log1p(a);
    ++stats.verified_entries;
    if (std::bit_cast<std::uint64_t>(*slot) ==
        std::bit_cast<std::uint64_t>(want)) {
      return;
    }
    const std::uint64_t ulp = mathx::UlpDistance(*slot, want);
    stats.max_verify_ulp = std::max(stats.max_verify_ulp, ulp);
    if (ulp > ladder.ulp_band) {
      *slot = want;
      ++stats.promoted_verify;
    }
  };
  switch (ladder.verify) {
    case PrecisionLadderOptions::Verify::kOff:
      break;
    case PrecisionLadderOptions::Verify::kSampled: {
      rng::SplitMix64 rng(ladder.verify_seed);
      const std::size_t samples = std::min(ladder.verify_samples, off_diag);
      for (std::size_t k = 0; k < samples; ++k) {
        const std::size_t j = rng.Next() % n_;
        std::size_t i = rng.Next() % (n_ - 1);
        if (i >= j) ++i;
        check_entry(i, j);
      }
      break;
    }
    case PrecisionLadderOptions::Verify::kFull:
      for (std::size_t j = 0; j < n_; ++j) {
        for (std::size_t i = 0; i < n_; ++i) {
          if (i != j) check_entry(i, j);
        }
      }
      break;
  }

  // Rung 3 (row): seeded rows are re-summed with Neumaier compensation
  // in the exact expression. The tolerance scales the band by the
  // compensated-summation error model — per-entry disagreements of up to
  // `ulp_band` ULP displace the row sum by at most ~band·ε·Σ|e_i| — with
  // an n·ε·|Σ| envelope plus a denormal floor so an all-tiny row cannot
  // trip on absolute noise. A drifting row is rewritten exactly.
  const std::size_t rows = std::min(ladder.verify_rows, n_);
  if (rows == 0) return;
  rng::SplitMix64 row_rng(ladder.verify_seed ^ 0xda3e39cb94b95bdbull);
  std::vector<double> exact_row(n_, 0.0);
  for (std::size_t k = 0; k < rows; ++k) {
    const std::size_t j = row_rng.Next() % n_;
    ++stats.verified_rows;
    double* row = data + j * n_;
    mathx::NeumaierSum exact_sum;
    mathx::NeumaierSum fast_sum;
    for (std::size_t i = 0; i < n_; ++i) {
      if (i == j) {
        exact_row[i] = 0.0;
        continue;
      }
      const double a = FastAffectance(i, j);
      exact_row[i] = affectance ? a : std::log1p(a);
      exact_sum.Add(exact_row[i]);
      fast_sum.Add(row[i]);
    }
    const double want = exact_sum.Total();
    const double tol =
        static_cast<double>(ladder.ulp_band) *
        (std::numeric_limits<double>::epsilon() * static_cast<double>(n_) *
             std::abs(want) +
         std::numeric_limits<double>::min());
    if (std::abs(fast_sum.Total() - want) > tol) {
      std::copy(exact_row.begin(), exact_row.end(), row);
      ++stats.promoted_rows;
    }
  }
}

FactorBuffer InterferenceEngine::BuildMatrixData(bool affectance,
                                                 LadderStats& stats) const {
  stats = LadderStats{};
  FactorBuffer data;
  if (n_ == 0) return data;

  // Ladder eligibility: the fast kernel evaluates every off-diagonal
  // entry through the quarter-integer chain — a generic α (libm pow)
  // keeps the exact tile loop.
  const bool fast = options_.ladder.enabled && kernel_.IsSpecialized();
  if (options_.ladder.enabled && !fast) {
    stats.fallback_reason = "generic (non-quarter-integer) alpha";
  }
  const SimdLevel level = ResolveSimdLevel(options_.ladder.force_level);

  // Both tile loops write every entry (diagonal included), so the buffer
  // stays uninitialized — the allocator's default-init resize() skips a
  // full zero-fill pass over the O(N²) working set, and a recycled block
  // may still hold an earlier matrix's bits.
  data.resize(n_ * n_);

  const std::size_t tile = std::max<std::size_t>(1, options_.tile_rows);
  const std::size_t num_tiles = (n_ + tile - 1) / tile;
  std::vector<std::size_t> tile_promoted(num_tiles, 0);
  const auto run_tile = [&](std::size_t t) {
    const std::size_t row_begin = t * tile;
    const std::size_t row_end = std::min(n_, row_begin + tile);
    if (fast) {
      tile_promoted[t] =
          FillFastTile(affectance, level, row_begin, row_end, data.data());
    } else {
      FillTile(affectance, row_begin, row_end, data.data());
    }
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

  if (fast) {
    stats.active = true;
    stats.level = level;
    stats.entries = n_ * (n_ - 1);
    for (const std::size_t p : tile_promoted) stats.promoted_domain += p;
    VerifyLadder(affectance, data.data(), stats);
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
    // Ladder settings shape a materialized matrix too; two disabled
    // ladders are interchangeable regardless of their other knobs.
    const bool ladder_match =
        (!built.ladder.enabled && !options.ladder.enabled) ||
        built.ladder == options.ladder;
    if (built.backend == options.backend &&
        (options.backend != FactorBackend::kMatrix ||
         (built.affectance_matrix == options.affectance_matrix &&
          ladder_match))) {
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
