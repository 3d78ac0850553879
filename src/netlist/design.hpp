#pragma once
// Gate-level netlist with net parasitics — the "circuit design" input of
// the problem formulation (Section 2 of the paper): gates instantiating
// library cells, nets with a driver and sinks, lumped wire capacitance
// and per-sink Elmore resistance, and top-level ports.

#include <string>
#include <unordered_map>
#include <vector>

#include "liberty/library.hpp"
#include "util/types.hpp"

namespace tmm {

/// A pin is either a gate terminal (gate != kInvalidId) or a top-level
/// port (gate == kInvalidId, port indexes Design::ports_).
struct Pin {
  GateId gate = kInvalidId;
  std::uint32_t port = 0;  ///< cell-port index, or top-level port index
  NetId net = kInvalidId;
  /// True if this pin drives its net (gate output or primary input).
  bool is_driver = false;
};

struct Gate {
  std::string name;
  CellId cell = kInvalidId;
  /// Pin ids parallel to the cell's port list.
  std::vector<PinId> pins;
};

/// Net parasitics: a lumped wire capacitance seen by the driver plus a
/// per-sink Elmore resistance (driver-to-sink), so that the wire delay to
/// sink k is res[k] * (cap of sink k) and the driver load is
/// wire_cap + sum(sink pin caps).
struct Net {
  std::string name;
  PinId driver = kInvalidId;
  std::vector<PinId> sinks;
  double wire_cap_ff = 0.0;
  std::vector<double> sink_res_kohm;  ///< parallel to sinks
};

enum class TopPortDir : std::uint8_t { kPrimaryInput, kPrimaryOutput };

struct TopPort {
  std::string name;
  TopPortDir dir = TopPortDir::kPrimaryInput;
  PinId pin = kInvalidId;
  bool is_clock = false;
};

class Design {
 public:
  Design(std::string name, const Library* lib)
      : name_(std::move(name)), lib_(lib) {}

  const std::string& name() const noexcept { return name_; }
  const Library& library() const noexcept { return *lib_; }

  // --- construction -------------------------------------------------
  /// Add a top-level port; creates its pin. Returns the port index.
  std::uint32_t add_port(const std::string& port_name, TopPortDir dir,
                         bool is_clock = false);
  /// Add a gate instantiating `cell`; creates one pin per cell port.
  GateId add_gate(const std::string& gate_name, CellId cell);
  /// Create a net driven by `driver_pin`. Returns the net id.
  NetId add_net(const std::string& net_name, PinId driver_pin);
  /// Attach a sink pin to a net with the given wire resistance.
  void connect_sink(NetId net, PinId sink_pin, double res_kohm = 0.0);
  /// Set the lumped wire capacitance of a net.
  void set_wire_cap(NetId net, double cap_ff);

  // --- access --------------------------------------------------------
  std::size_t num_pins() const noexcept { return pins_.size(); }
  std::size_t num_gates() const noexcept { return gates_.size(); }
  std::size_t num_nets() const noexcept { return nets_.size(); }
  std::size_t num_ports() const noexcept { return ports_.size(); }

  const Pin& pin(PinId id) const { return pins_.at(id); }
  const Gate& gate(GateId id) const { return gates_.at(id); }
  const Net& net(NetId id) const { return nets_.at(id); }
  const TopPort& port(std::uint32_t idx) const { return ports_.at(idx); }

  const std::vector<Pin>& pins() const noexcept { return pins_; }
  const std::vector<Gate>& gates() const noexcept { return gates_; }
  const std::vector<Net>& nets() const noexcept { return nets_; }
  const std::vector<TopPort>& ports() const noexcept { return ports_; }

  /// Primary input / output pin lists (clock port included in PIs).
  const std::vector<PinId>& primary_inputs() const noexcept { return pis_; }
  const std::vector<PinId>& primary_outputs() const noexcept { return pos_; }

  bool is_primary_input(PinId p) const {
    const auto& pin = pins_.at(p);
    return pin.gate == kInvalidId &&
           ports_[pin.port].dir == TopPortDir::kPrimaryInput;
  }
  bool is_primary_output(PinId p) const {
    const auto& pin = pins_.at(p);
    return pin.gate == kInvalidId &&
           ports_[pin.port].dir == TopPortDir::kPrimaryOutput;
  }

  /// The cell port backing a gate pin (requires pin.gate valid).
  const CellPort& cell_port(PinId p) const {
    const auto& pin = pins_.at(p);
    return lib_->cell(gates_[pin.gate].cell).ports[pin.port];
  }

  /// Human-readable pin name: "gate/port" or the top-level port name.
  std::string pin_name(PinId p) const;

  /// Input pin capacitance in fF (0 for drivers and PO port pins
  /// without explicit load; PO loads come from boundary constraints).
  double pin_cap_ff(PinId p) const;

  /// Total capacitive load a driver pin sees on its net (wire + sinks),
  /// excluding any boundary PO load (added by the timer).
  double net_load_ff(NetId n) const;

  /// Clock source port pin, or kInvalidId if the design has none.
  PinId clock_root() const noexcept { return clock_root_; }

  /// Basic sanity checks (every pin on a net, every net driven, ...).
  /// Throws std::runtime_error on violation.
  void validate() const;

 private:
  std::string name_;
  const Library* lib_;
  std::vector<Pin> pins_;
  std::vector<Gate> gates_;
  std::vector<Net> nets_;
  std::vector<TopPort> ports_;
  std::vector<PinId> pis_;
  std::vector<PinId> pos_;
  PinId clock_root_ = kInvalidId;
};

/// Design statistics for Table 2.
struct DesignStats {
  std::size_t pins = 0;
  std::size_t cells = 0;
  std::size_t nets = 0;
};

inline DesignStats design_stats(const Design& d) {
  return {d.num_pins(), d.num_gates(), d.num_nets()};
}

}  // namespace tmm
