#include "ajac/obs/monitor.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "ajac/util/check.hpp"

namespace ajac::obs {

namespace {

/// Median of a scratch vector (partially sorts it).
double median_of(std::vector<double>& v) {
  if (v.empty()) return 0.0;
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid),
                   v.end());
  double m = v[mid];
  if (v.size() % 2 == 0) {
    const double lower =
        *std::max_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid));
    m = 0.5 * (m + lower);
  }
  return m;
}

}  // namespace

ConvergenceMonitor::ConvergenceMonitor(TelemetryHub& hub, Options opts)
    : hub_(&hub), opts_(opts) {
  AJAC_CHECK(opts_.window_us > 0.0);
  AJAC_CHECK(opts_.straggler_fraction > 0.0 && opts_.straggler_fraction < 1.0);
  AJAC_CHECK(opts_.straggler_windows >= 1);
  AJAC_CHECK(opts_.regression_window >= 2);
  actors_.resize(static_cast<std::size_t>(hub.options().max_actors));
}

ConvergenceMonitor::~ConvergenceMonitor() { stop(); }

void ConvergenceMonitor::add_sink(StreamSink* sink) {
  const std::lock_guard<std::mutex> lock(mu_);
  sinks_.push_back(sink);
}

void ConvergenceMonitor::poll_now() {
  const std::lock_guard<std::mutex> lock(mu_);
  drain_locked();
}

void ConvergenceMonitor::flush() {
  // Each quiet pass lifts the watermark to the global max (every ring
  // drains empty), so the second pass consumes whatever the first left
  // pending; loop until a pass processes nothing at all.
  for (;;) {
    const std::lock_guard<std::mutex> lock(mu_);
    if (!drain_locked()) return;
  }
}

void ConvergenceMonitor::start() {
  AJAC_CHECK_MSG(drainer_ == nullptr, "monitor already started");
  stop_.store(false, std::memory_order_release);
  drainer_ = std::make_unique<std::thread>([this] {
    const auto interval =
        std::chrono::duration<double, std::milli>(opts_.poll_interval_ms);
    while (!stop_.load(std::memory_order_acquire)) {
      poll_now();
      std::this_thread::sleep_for(interval);
    }
  });
}

void ConvergenceMonitor::stop() {
  if (drainer_ == nullptr) return;
  stop_.store(true, std::memory_order_release);
  drainer_->join();
  drainer_.reset();
  // Final sweep so beacons published after the drainer's last pass (e.g.
  // the workers' final beacons) and the watermark-buffered tail are
  // consumed and forwarded.
  flush();
}

MonitorEstimates ConvergenceMonitor::estimates() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return est_;
}

bool ConvergenceMonitor::drain_locked() {
  const TelemetryRunInfo run = hub_->run_info();
  if (run.generation == 0) return false;  // no run yet
  if (run.generation != run_.generation) {
    // New run: reset every per-run estimate but keep the ring cursors —
    // rings are never reset, so positions stay valid across runs.
    for (ActorState& st : actors_) {
      st.pending.clear();
      st.reported = false;
      st.latest = Beacon{};
      st.window_start_relaxations = 0;
      st.slow_streak = 0;
      st.flagged = false;
      st.dropped_base = st.cursor.dropped;
    }
    est_ = MonitorEstimates{};
    est_.run_generation = run.generation;
    next_window_ = 1;
    windows_armed_ = false;
    skip_first_window_ = false;
    watermark_ = 0.0;
    global_max_ts_ = 0.0;
    frontier_iter_ = 0;
    points_.clear();
  }
  run_ = run;

  // Drain every ring into its actor's pending queue, then advance the
  // watermark: each actor is confirmed-complete up to its newest drained
  // beacon (rings are FIFO), or — when its ring drained empty — up to the
  // previous pass's global maximum (ring emptiness at drain time proves
  // silence up to every timestamp already seen; beacon time orders
  // consistently with publish order across actors). Only beacons at or
  // below the min of these are processed this pass; the rest wait in
  // pending. This is what keeps the per-window relaxation deltas honest:
  // without it, ring-drain skew inside one pass makes a healthy actor
  // look stalled (its beacons for the skew interval are still in its
  // ring while another actor's newer beacons close the windows). A truly
  // silent actor does not pin the watermark — its empty-ring fallback
  // keeps advancing with everyone else's beacons, which is what lets
  // stalls be detected at all.
  double cur_max = global_max_ts_;
  double wm = -1.0;
  bool wm_set = true;
  for (index_t a = 0; a < run_.num_actors; ++a) {
    ActorState& st = actors_[static_cast<std::size_t>(a)];
    Beacon b;
    bool has_fresh = false;
    while (hub_->ring(a).poll(st.cursor, b)) {
      st.pending.push_back(b);
      has_fresh = true;
    }
    if (has_fresh) cur_max = std::max(cur_max, st.pending.back().ts_us);
    double complete_to = 0.0;
    if (has_fresh) {
      complete_to = st.pending.back().ts_us;
    } else if (st.reported || !st.pending.empty()) {
      complete_to = global_max_ts_;
    } else {
      // Never published: hold the watermark until every actor has its
      // first beacon in flight — windows are unarmed until all actors
      // report, and processing ahead of a late starter would
      // desynchronize the window baselines resampled at arming time.
      // (Keep draining the remaining rings so none overflows meanwhile.)
      wm_set = false;
      continue;
    }
    wm = wm < 0.0 ? complete_to : std::min(wm, complete_to);
  }
  if (wm_set && wm >= 0.0) watermark_ = std::max(watermark_, wm);
  global_max_ts_ = cur_max;

  // Merge the processable prefixes in nondecreasing beacon time: the
  // window and frontier logic rely on seeing cross-actor evidence in
  // timestamp order. stable_sort keeps per-actor order for equal stamps
  // (sim time produces ties).
  struct Tagged {
    index_t actor;
    Beacon b;
  };
  std::vector<Tagged> batch;
  for (index_t a = 0; a < run_.num_actors; ++a) {
    ActorState& st = actors_[static_cast<std::size_t>(a)];
    while (!st.pending.empty() && st.pending.front().ts_us <= watermark_) {
      batch.push_back({a, st.pending.front()});
      st.pending.pop_front();
    }
  }
  if (batch.empty()) return false;
  std::stable_sort(batch.begin(), batch.end(),
                   [](const Tagged& lhs, const Tagged& rhs) {
                     return lhs.b.ts_us < rhs.b.ts_us;
                   });
  for (const Tagged& t : batch) process_beacon(t.actor, t.b);

  std::uint64_t dropped = 0;
  for (index_t a = 0; a < run_.num_actors; ++a) {
    const ActorState& st = actors_[static_cast<std::size_t>(a)];
    dropped += st.cursor.dropped - st.dropped_base;
  }
  est_.dropped = dropped;

  for (StreamSink* sink : sinks_) sink->on_estimates(est_);
  return true;
}

void ConvergenceMonitor::process_beacon(index_t actor, const Beacon& b) {
  // Close windows the merged stream has now passed *before* integrating
  // this beacon: every actor's cumulative state is then exactly its
  // as-of-boundary value (all earlier beacons processed, none later).
  close_windows_up_to(b.ts_us);

  ActorState& st = actors_[static_cast<std::size_t>(actor)];
  if (!st.reported) {
    st.reported = true;
    ++est_.actors_reporting;
  }
  st.latest = b;
  ++est_.beacons;
  est_.ts_us = std::max(est_.ts_us, b.ts_us);

  if (!windows_armed_ && est_.actors_reporting == run_.num_actors) {
    // Arm the straggler detector only once every actor has published:
    // start-up skew (a thread forked late) must not read as a stall. The
    // first closed window after arming is partial, so it only resamples
    // the baselines and is not judged.
    windows_armed_ = true;
    skip_first_window_ = true;
    next_window_ =
        static_cast<std::int64_t>(std::floor(b.ts_us / opts_.window_us)) + 1;
    for (index_t a = 0; a < run_.num_actors; ++a) {
      ActorState& other = actors_[static_cast<std::size_t>(a)];
      other.window_start_relaxations = other.latest.relaxations;
    }
  }

  update_frontier(b.ts_us);
  for (StreamSink* sink : sinks_) sink->on_beacon(actor, b);
}

void ConvergenceMonitor::close_windows_up_to(double ts_us) {
  if (!windows_armed_) return;
  ts_us = std::min(ts_us, watermark_);
  while (static_cast<double>(next_window_) * opts_.window_us <= ts_us) {
    const double boundary =
        static_cast<double>(next_window_) * opts_.window_us;
    std::vector<double> rates(static_cast<std::size_t>(run_.num_actors));
    for (index_t a = 0; a < run_.num_actors; ++a) {
      const ActorState& st = actors_[static_cast<std::size_t>(a)];
      rates[static_cast<std::size_t>(a)] =
          static_cast<double>(st.latest.relaxations -
                              st.window_start_relaxations) /
          opts_.window_us;
    }
    std::vector<double> scratch = rates;
    const double median = median_of(scratch);
    // median == 0 means nobody made progress this window (all parked or
    // run over): there is no healthy cohort to judge against, so no actor
    // is flagged — only ever *compared* slowness counts as straggling.
    if (!skip_first_window_ && median > 0.0) {
      for (index_t a = 0; a < run_.num_actors; ++a) {
        ActorState& st = actors_[static_cast<std::size_t>(a)];
        const double rate = rates[static_cast<std::size_t>(a)];
        if (rate < opts_.straggler_fraction * median) {
          ++st.slow_streak;
          if (st.slow_streak >= opts_.straggler_windows && !st.flagged) {
            st.flagged = true;
            est_.stragglers.push_back({a, boundary, rate, median});
          }
        } else {
          st.slow_streak = 0;
        }
      }
    }
    skip_first_window_ = false;
    for (index_t a = 0; a < run_.num_actors; ++a) {
      ActorState& st = actors_[static_cast<std::size_t>(a)];
      st.window_start_relaxations = st.latest.relaxations;
    }
    ++next_window_;
  }
}

void ConvergenceMonitor::update_frontier(double ts_us) {
  if (est_.actors_reporting < run_.num_actors || run_.num_actors == 0) {
    return;
  }
  std::int64_t it_min = actors_[0].latest.iteration;
  std::int64_t it_max = it_min;
  double sum = 0.0;
  for (index_t a = 0; a < run_.num_actors; ++a) {
    const Beacon& b = actors_[static_cast<std::size_t>(a)].latest;
    it_min = std::min(it_min, b.iteration);
    it_max = std::max(it_max, b.iteration);
    sum += b.own_residual_1;
  }
  est_.iteration_min = it_min;
  est_.iteration_max = it_max;
  est_.iteration_imbalance =
      static_cast<double>(it_max - it_min) /
      static_cast<double>(std::max<std::int64_t>(1, it_max));
  const double rel = sum / run_.residual_scale;
  est_.global_rel_residual = rel;

  // A new frontier point whenever the slowest actor advanced: the global
  // estimate is then made of residuals all at iteration >= the frontier,
  // i.e. a genuinely new epoch of the solve. On the synchronous path all
  // actors sit at the same iteration, so each point is the exact global
  // residual of that iteration.
  if (it_min > frontier_iter_) {
    frontier_iter_ = it_min;
    points_.push_back({static_cast<double>(it_min), ts_us,
                       std::log(std::max(rel, 1e-300))});
    while (points_.size() >
           static_cast<std::size_t>(opts_.regression_window)) {
      points_.pop_front();
    }
    update_regression();
  }
}

void ConvergenceMonitor::update_regression() {
  const std::size_t n = points_.size();
  if (n < 2) {
    est_.rho_hat = 0.0;
    est_.eta_us = -1.0;
    return;
  }
  double mean_it = 0.0;
  double mean_ts = 0.0;
  double mean_y = 0.0;
  for (const FrontierPoint& p : points_) {
    mean_it += p.iter;
    mean_ts += p.ts_us;
    mean_y += p.ln_rel;
  }
  const auto dn = static_cast<double>(n);
  mean_it /= dn;
  mean_ts /= dn;
  mean_y /= dn;
  double var_it = 0.0;
  double var_ts = 0.0;
  double cov_it = 0.0;
  double cov_ts = 0.0;
  for (const FrontierPoint& p : points_) {
    var_it += (p.iter - mean_it) * (p.iter - mean_it);
    var_ts += (p.ts_us - mean_ts) * (p.ts_us - mean_ts);
    cov_it += (p.iter - mean_it) * (p.ln_rel - mean_y);
    cov_ts += (p.ts_us - mean_ts) * (p.ln_rel - mean_y);
  }
  est_.rho_hat = var_it > 0.0 ? std::exp(cov_it / var_it) : 0.0;

  est_.eta_us = -1.0;
  if (run_.tolerance > 0.0 && var_ts > 0.0) {
    const double slope_ts = cov_ts / var_ts;
    const double ln_rel = points_.back().ln_rel;
    const double ln_tol = std::log(run_.tolerance);
    if (slope_ts < 0.0 && ln_rel > ln_tol) {
      est_.eta_us = (ln_tol - ln_rel) / slope_ts;
    }
  }
}

}  // namespace ajac::obs
