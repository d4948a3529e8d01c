// Network: owner of all nodes and links of one simulated topology.
#pragma once

#include <memory>
#include <string_view>
#include <utility>
#include <vector>

#include "device/node.h"
#include "link/link.h"
#include "sim/simulator.h"

namespace netco::device {

/// The two port indices created by a connect() call.
struct Connection {
  PortIndex a_port = kNoPort;  ///< port allocated on the first node
  PortIndex b_port = kNoPort;  ///< port allocated on the second node
  link::Link* link = nullptr;  ///< the underlying link (for stats)
};

/// Container that owns nodes and links and performs the wiring.
///
/// Topology builders create a Network, populate it, and hand it (by
/// reference) to applications and measurement code. Node lifetimes equal the
/// Network's lifetime, so raw references between components are safe.
class Network {
 public:
  explicit Network(sim::Simulator& simulator) : simulator_(simulator) {}

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Constructs a node of type `T` in place; the Network owns it.
  /// `T`'s constructor must take (sim::Simulator&, args...).
  template <typename T, typename... Args>
  T& add_node(Args&&... args) {
    auto node = std::make_unique<T>(simulator_, std::forward<Args>(args)...);
    T& ref = *node;
    nodes_.push_back(std::move(node));
    return ref;
  }

  /// Creates a full-duplex link between `a` and `b`, allocating one new
  /// port on each, and binds the receive sinks.
  Connection connect(Node& a, Node& b, link::LinkConfig config = {});

  /// Finds a node by name; nullptr if absent.
  [[nodiscard]] Node* find(std::string_view name) const noexcept;

  /// All nodes, in creation order.
  [[nodiscard]] const std::vector<std::unique_ptr<Node>>& nodes()
      const noexcept {
    return nodes_;
  }

  /// The event loop driving this network.
  [[nodiscard]] sim::Simulator& simulator() noexcept { return simulator_; }

 private:
  sim::Simulator& simulator_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<std::unique_ptr<link::Link>> links_;
};

}  // namespace netco::device
