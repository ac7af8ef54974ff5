#include "ajac/obs/stream.hpp"

#include "ajac/obs/json.hpp"
#include "ajac/obs/monitor.hpp"
#include "ajac/obs/trace_sink.hpp"
#include "ajac/util/check.hpp"

namespace ajac::obs {

// ---------------------------------------------------------------------------
// TelemetryHub
// ---------------------------------------------------------------------------

TelemetryHub::TelemetryHub(TelemetryOptions opts) : opts_(opts) {
  AJAC_CHECK(opts_.max_actors >= 1);
  AJAC_CHECK(opts_.beacon_stride >= 1);
  // All rings up front, never reallocated: a ConvergenceMonitor may hold
  // references and poll while later runs publish.
  for (index_t a = 0; a < opts_.max_actors; ++a) {
    rings_.emplace_back(opts_.ring_capacity);
  }
}

EventRing& TelemetryHub::ring(index_t actor) {
  AJAC_CHECK(actor >= 0 && actor < opts_.max_actors);
  return rings_[static_cast<std::size_t>(actor)];
}

const EventRing& TelemetryHub::ring(index_t actor) const {
  AJAC_CHECK(actor >= 0 && actor < opts_.max_actors);
  return rings_[static_cast<std::size_t>(actor)];
}

void TelemetryHub::begin_run(index_t num_actors, std::string_view actor_kind,
                             double tolerance, bool sim_time) {
  AJAC_CHECK_MSG(num_actors >= 1 && num_actors <= opts_.max_actors,
                 "telemetry hub sized for " << opts_.max_actors
                                            << " actors, run needs "
                                            << num_actors);
  const std::lock_guard<std::mutex> lock(mu_);
  ++run_.generation;
  run_.num_actors = num_actors;
  run_.actor_kind.assign(actor_kind.begin(), actor_kind.end());
  run_.residual_scale = 1.0;
  run_.tolerance = tolerance;
  run_.sim_time = sim_time;
}

void TelemetryHub::set_residual_scale(double scale) {
  const std::lock_guard<std::mutex> lock(mu_);
  run_.residual_scale = scale > 0.0 ? scale : 1.0;
}

TelemetryRunInfo TelemetryHub::run_info() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return run_;
}

// ---------------------------------------------------------------------------
// NdjsonSink
// ---------------------------------------------------------------------------

void NdjsonSink::on_beacon(index_t actor, const Beacon& b) {
  JsonWriter w;
  w.begin_object();
  w.key("type").value("beacon");
  w.key("actor").value(static_cast<std::int64_t>(actor));
  w.key("ts_us").value(opts_.zero_timestamps ? 0.0 : b.ts_us);
  w.key("iteration").value(b.iteration);
  w.key("relaxations").value(b.relaxations);
  w.key("own_residual_1").value(b.own_residual_1);
  w.key("policy_draws").value(b.policy_draws);
  w.end_object();
  *out_ << w.str() << '\n';
  if (opts_.flush_every_record) out_->flush();
}

void NdjsonSink::on_estimates(const MonitorEstimates& e) {
  JsonWriter w;
  w.begin_object();
  w.key("type").value("estimate");
  w.key("ts_us").value(opts_.zero_timestamps ? 0.0 : e.ts_us);
  w.key("beacons").value(e.beacons);
  w.key("dropped").value(e.dropped);
  w.key("actors_reporting").value(
      static_cast<std::int64_t>(e.actors_reporting));
  w.key("global_rel_residual").value(e.global_rel_residual);
  w.key("rho_hat").value(e.rho_hat);
  w.key("eta_us").value(opts_.zero_timestamps ? 0.0 : e.eta_us);
  w.key("iteration_min").value(e.iteration_min);
  w.key("iteration_max").value(e.iteration_max);
  w.key("iteration_imbalance").value(e.iteration_imbalance);
  w.key("stragglers").begin_array();
  for (const StragglerFlag& f : e.stragglers) {
    w.begin_object();
    w.key("actor").value(static_cast<std::int64_t>(f.actor));
    w.key("detected_ts_us").value(
        opts_.zero_timestamps ? 0.0 : f.detected_ts_us);
    w.key("rate").value(opts_.zero_timestamps ? 0.0 : f.rate);
    w.key("median_rate").value(opts_.zero_timestamps ? 0.0 : f.median_rate);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  *out_ << w.str() << '\n';
  if (opts_.flush_every_record) out_->flush();
}

// ---------------------------------------------------------------------------
// TraceCounterSink
// ---------------------------------------------------------------------------

void TraceCounterSink::on_beacon(index_t actor, const Beacon& b) {
  sink_->counter("iteration/actor" + std::to_string(actor), b.ts_us,
                 static_cast<double>(b.iteration));
}

void TraceCounterSink::on_estimates(const MonitorEstimates& e) {
  if (e.global_rel_residual >= 0.0) {
    sink_->counter("rel_residual", e.ts_us, e.global_rel_residual);
  }
  if (e.rho_hat > 0.0) sink_->counter("rho_hat", e.ts_us, e.rho_hat);
  sink_->counter("iteration_lag", e.ts_us,
                 static_cast<double>(e.iteration_max - e.iteration_min));
  sink_->counter("dropped_beacons", e.ts_us,
                 static_cast<double>(e.dropped));
}

}  // namespace ajac::obs
