// Outside-in layer tracing for the traced benchmark run.
//
// Nothing under src/ is instrumented. Instead the benchmark wraps the
// layers' public virtual interfaces in forwarding proxies — LinkModel,
// Mac, Application and ChannelObserver — and times each scheduler step.
// Every span is timed with mnp::service::wall_ms(), the repo's one
// allowlisted clock. A span's self time is its duration minus the spans
// nested in it, so the step self times plus the proxy self times add up
// to the summed step spans.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "net/channel.hpp"
#include "net/link_model.hpp"
#include "net/mac.hpp"
#include "node/application.hpp"
#include "node/stats.hpp"
#include "service/wallclock.hpp"
#include "sim/scheduler.hpp"

namespace mnp::e2e {

/// Layers that get proxy spans.
enum class Layer : std::size_t { kLinkModel, kMac, kProtocol, kStats, kCount };

/// Scheduler-step classes: a step that started a transmission, one that
/// ended one (delivery or collision), and everything else.
enum class StepClass : std::size_t { kTxBegin, kRxEnd, kTimer, kCount };

class Tracer {
 public:
  Tracer() { stack_.reserve(16); }

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void begin_span() { stack_.push_back(Frame{service::wall_ms(), 0.0}); }

  void end_span(Layer layer) {
    const std::size_t l = static_cast<std::size_t>(layer);
    const double dur = pop_frame(&layer_self_ms_[l]);
    ++layer_calls_[l];
    if (!stack_.empty()) stack_.back().child_ms += dur;
  }

  /// Runs the event loop: each `keep_running()` check and each scheduler
  /// step is a span, and each span starts where the previous one ended,
  /// so their sum covers the loop. A step is classed by what the channel
  /// observer saw during it. Returns the number of steps.
  template <typename Pred>
  std::uint64_t run_loop(sim::Scheduler& scheduler, Pred&& keep_running) {
    std::uint64_t steps = 0;
    double t = service::wall_ms();
    for (;;) {
      const bool more = keep_running();
      const double check_end = service::wall_ms();
      loop_check_ms_ += check_end - t;
      if (!more) return steps;
      saw_transmit_ = false;
      saw_reception_ = false;
      stack_.push_back(Frame{check_end, 0.0});
      scheduler.step();
      const StepClass c = saw_transmit_    ? StepClass::kTxBegin
                          : saw_reception_ ? StepClass::kRxEnd
                                           : StepClass::kTimer;
      const std::size_t i = static_cast<std::size_t>(c);
      const double dur = pop_frame(&step_self_ms_[i]);
      step_span_ms_ += dur;
      ++step_count_[i];
      t = check_end + dur;
      ++steps;
    }
  }

  void note_transmit() { saw_transmit_ = true; }
  void note_reception() { saw_reception_ = true; }
  void note_reboot() { ++reboots_; }

  // Queue wait: simulated time from an accepted Mac::send to the node's
  // next transmission start. A flush discards the pending sends.
  void note_send(net::NodeId id, sim::Time now) {
    if (id >= pending_sends_.size()) pending_sends_.resize(id + 1u);
    pending_sends_[id].push_back(now);
  }
  void note_flush(net::NodeId id) {
    if (id < pending_sends_.size()) pending_sends_[id].clear();
  }
  void note_tx_start(net::NodeId id, sim::Time now) {
    if (id >= pending_sends_.size()) return;
    for (const sim::Time t : pending_sends_[id]) {
      queue_waits_.push_back(now - t);
    }
    pending_sends_[id].clear();
  }

  double layer_self_s(Layer l) const {
    return layer_self_ms_[static_cast<std::size_t>(l)] / 1e3;
  }
  std::uint64_t layer_calls(Layer l) const {
    return layer_calls_[static_cast<std::size_t>(l)];
  }
  double step_self_s(StepClass c) const {
    return step_self_ms_[static_cast<std::size_t>(c)] / 1e3;
  }
  std::uint64_t step_count(StepClass c) const {
    return step_count_[static_cast<std::size_t>(c)];
  }
  double step_span_s() const { return step_span_ms_ / 1e3; }
  double loop_check_s() const { return loop_check_ms_ / 1e3; }
  std::uint64_t reboots() const { return reboots_; }
  /// Waits in simulated microseconds, in no particular order.
  std::vector<sim::Time>& queue_waits() { return queue_waits_; }

 private:
  struct Frame {
    double start_ms;
    double child_ms;
  };

  /// Closes the innermost frame, adds its self time to `*self_ms` and
  /// returns its duration.
  double pop_frame(double* self_ms) {
    const Frame f = stack_.back();
    stack_.pop_back();
    const double dur = service::wall_ms() - f.start_ms;
    *self_ms += dur - f.child_ms;
    return dur;
  }

  std::vector<Frame> stack_;
  std::array<double, static_cast<std::size_t>(Layer::kCount)> layer_self_ms_{};
  std::array<std::uint64_t, static_cast<std::size_t>(Layer::kCount)>
      layer_calls_{};
  std::array<double, static_cast<std::size_t>(StepClass::kCount)>
      step_self_ms_{};
  std::array<std::uint64_t, static_cast<std::size_t>(StepClass::kCount)>
      step_count_{};
  double step_span_ms_ = 0.0;
  double loop_check_ms_ = 0.0;
  bool saw_transmit_ = false;
  bool saw_reception_ = false;
  std::uint64_t reboots_ = 0;
  std::vector<std::vector<sim::Time>> pending_sends_;
  std::vector<sim::Time> queue_waits_;
};

/// Scoped span: opens on construction, closes into `layer` on destruction.
class Span {
 public:
  Span(Tracer& tracer, Layer layer) : tracer_(tracer), layer_(layer) {
    tracer_.begin_span();
  }
  ~Span() { tracer_.end_span(layer_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& tracer_;
  Layer layer_;
};

/// Forwards every LinkModel call. The link-quality queries get spans;
/// revision() is a version poll the channel makes on every cache lookup
/// and is forwarded without one, since a span would cost more than the
/// call it measures.
class LinkModelProxy final : public net::LinkModel {
 public:
  LinkModelProxy(std::unique_ptr<net::LinkModel> inner, Tracer& tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  double packet_success(net::NodeId src, net::NodeId dst,
                        double power_scale) const override {
    Span s(tracer_, Layer::kLinkModel);
    return inner_->packet_success(src, dst, power_scale);
  }
  bool interferes(net::NodeId src, net::NodeId dst,
                  double power_scale) const override {
    Span s(tracer_, Layer::kLinkModel);
    return inner_->interferes(src, dst, power_scale);
  }
  std::uint64_t revision() const override { return inner_->revision(); }
  double max_interference_range(double power_scale) const override {
    Span s(tracer_, Layer::kLinkModel);
    return inner_->max_interference_range(power_scale);
  }
  bool changed_nodes_since(std::uint64_t since,
                           std::vector<net::NodeId>& out) const override {
    Span s(tracer_, Layer::kLinkModel);
    return inner_->changed_nodes_since(since, out);
  }

 private:
  std::unique_ptr<net::LinkModel> inner_;
  Tracer& tracer_;
};

/// Forwards every Mac call; sends get spans and feed the queue-wait
/// measurement.
class MacProxy final : public net::Mac {
 public:
  MacProxy(std::unique_ptr<net::Mac> inner, net::NodeId id,
           const sim::Scheduler& scheduler, Tracer& tracer)
      : inner_(std::move(inner)), id_(id), scheduler_(scheduler),
        tracer_(tracer) {}

  void attach_metrics(obs::MetricsRegistry& registry) override {
    inner_->attach_metrics(registry);
  }
  bool send(net::FramePtr frame) override {
    Span s(tracer_, Layer::kMac);
    const bool ok = inner_->send(std::move(frame));
    if (ok) tracer_.note_send(id_, scheduler_.now());
    return ok;
  }
  bool send(net::Packet pkt) override {
    Span s(tracer_, Layer::kMac);
    const bool ok = inner_->send(std::move(pkt));
    if (ok) tracer_.note_send(id_, scheduler_.now());
    return ok;
  }
  void flush() override {
    tracer_.note_flush(id_);
    inner_->flush();
  }
  std::size_t queue_depth() const override { return inner_->queue_depth(); }
  bool idle() const override { return inner_->idle(); }
  std::uint64_t packets_sent() const override { return inner_->packets_sent(); }
  std::uint64_t packets_dropped() const override {
    return inner_->packets_dropped();
  }
  void set_send_done(std::function<void(const net::Packet&)> cb) override {
    inner_->set_send_done(std::move(cb));
  }

 private:
  std::unique_ptr<net::Mac> inner_;
  net::NodeId id_;
  const sim::Scheduler& scheduler_;
  Tracer& tracer_;
};

/// Forwards every Application call; packet handling gets spans.
class ApplicationProxy final : public node::Application {
 public:
  ApplicationProxy(std::unique_ptr<node::Application> inner, Tracer& tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  void start(node::Node& node) override { inner_->start(node); }
  void on_packet(const net::Packet& pkt) override {
    Span s(tracer_, Layer::kProtocol);
    inner_->on_packet(pkt);
  }
  bool has_complete_image() const override {
    return inner_->has_complete_image();
  }
  void reset_for_reboot() override {
    tracer_.note_reboot();
    inner_->reset_for_reboot();
  }
  std::uint64_t audit_digest() const override {
    return inner_->audit_digest();
  }

 private:
  std::unique_ptr<node::Application> inner_;
  Tracer& tracer_;
};

/// Installed with Channel::set_observer in place of the network's
/// StatsCollector, to which it forwards every callback inside a span. It
/// also classes the current step and closes queue waits.
class ObserverProxy final : public net::ChannelObserver {
 public:
  ObserverProxy(node::StatsCollector& stats, Tracer& tracer)
      : stats_(stats), tracer_(tracer) {}

  void on_transmit(net::NodeId src, const net::Packet& pkt,
                   sim::Time now) override {
    tracer_.note_transmit();
    tracer_.note_tx_start(src, now);
    Span s(tracer_, Layer::kStats);
    stats_.on_transmit(src, pkt, now);
  }
  void on_deliver(net::NodeId src, net::NodeId dst, const net::Packet& pkt,
                  sim::Time now) override {
    tracer_.note_reception();
    Span s(tracer_, Layer::kStats);
    stats_.on_deliver(src, dst, pkt, now);
  }
  void on_collision(net::NodeId victim, sim::Time now) override {
    tracer_.note_reception();
    Span s(tracer_, Layer::kStats);
    stats_.on_collision(victim, now);
  }

 private:
  node::StatsCollector& stats_;
  Tracer& tracer_;
};

}  // namespace mnp::e2e
