// The Simulink-like model intermediate representation.
//
// A model is a directed graph of actors.  Each actor has a type (the string
// Simulink calls the "block type": "Add", "FFT", "Inport", ...), a unique
// name, a parameter map, and — once the model has been resolved against the
// actor registry — typed/shaped input and output ports.
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "model/datatype.hpp"
#include "model/tensor.hpp"

namespace hcg {

using ActorId = int;
inline constexpr ActorId kNoActor = -1;

/// A resolved port: element type + dimensions.
struct PortSpec {
  DataType type = DataType::kFloat32;
  Shape shape;

  bool operator==(const PortSpec&) const = default;
  std::string to_string() const {
    return std::string(short_name(type)) + "[" + shape.to_string() + "]";
  }
};

class Actor {
 public:
  Actor(ActorId id, std::string name, std::string type)
      : id_(id), name_(std::move(name)), type_(std::move(type)) {}

  ActorId id() const { return id_; }
  const std::string& name() const { return name_; }
  const std::string& type() const { return type_; }

  // ---- parameters --------------------------------------------------------
  bool has_param(std::string_view key) const;
  /// Throws hcg::ModelError if the parameter is absent.
  const std::string& param(std::string_view key) const;
  std::string param_or(std::string_view key, std::string_view fallback) const;
  long long int_param(std::string_view key) const;
  long long int_param_or(std::string_view key, long long fallback) const;
  double double_param_or(std::string_view key, double fallback) const;
  void set_param(std::string_view key, std::string_view value);
  const std::map<std::string, std::string>& params() const { return params_; }

  // ---- resolved ports (populated by hcg::actors::resolve_model) ----------
  bool is_resolved() const { return resolved_; }
  void set_ports(std::vector<PortSpec> inputs, std::vector<PortSpec> outputs) {
    inputs_ = std::move(inputs);
    outputs_ = std::move(outputs);
    resolved_ = true;
  }
  int input_count() const { return static_cast<int>(inputs_.size()); }
  int output_count() const { return static_cast<int>(outputs_.size()); }
  const PortSpec& input(int port) const;
  const PortSpec& output(int port) const;
  const std::vector<PortSpec>& inputs() const { return inputs_; }
  const std::vector<PortSpec>& outputs() const { return outputs_; }

 private:
  ActorId id_;
  std::string name_;
  std::string type_;
  std::map<std::string, std::string> params_;
  std::vector<PortSpec> inputs_;
  std::vector<PortSpec> outputs_;
  bool resolved_ = false;
};

/// A directed wire from (src actor, src output port) to
/// (dst actor, dst input port).
struct Connection {
  ActorId src = kNoActor;
  int src_port = 0;
  ActorId dst = kNoActor;
  int dst_port = 0;

  bool operator==(const Connection&) const = default;
};

/// The actor/connection graph.  Besides the connection list, a Model keeps
/// a name index and per-actor lists of incoming and outgoing connection
/// indices (each ascending), so name lookups are O(1) and wiring queries are
/// O(degree) while answering exactly like a scan of connections().
class Model {
 public:
  explicit Model(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  /// Adds an actor; names must be unique C identifiers.
  /// Returns the new actor's id.
  ActorId add_actor(std::string_view name, std::string_view type);

  /// Connects src's output port to dst's input port.  Each input port
  /// accepts exactly one incoming connection (checked here); outputs fan out.
  void connect(ActorId src, int src_port, ActorId dst, int dst_port);

  /// Re-points the existing connection feeding (dst, dst_port) at a new
  /// source.  Used by graph-rewriting passes (lane narrowing) to splice an
  /// actor into a wire; throws hcg::ModelError when the port has no
  /// incoming connection.
  void rewire_input(ActorId dst, int dst_port, ActorId new_src,
                    int new_src_port);

  int actor_count() const { return static_cast<int>(actors_.size()); }
  Actor& actor(ActorId id);
  const Actor& actor(ActorId id) const;
  const std::vector<Actor>& actors() const { return actors_; }
  std::vector<Actor>& actors() { return actors_; }

  /// Finds an actor by name in O(1); returns kNoActor if absent.
  ActorId find_actor(std::string_view name) const;
  /// Finds an actor by name; throws hcg::ModelError if absent.
  const Actor& actor_by_name(std::string_view name) const;

  const std::vector<Connection>& connections() const { return connections_; }

  /// The single connection feeding (dst, dst_port), if any.
  std::optional<Connection> incoming(ActorId dst, int dst_port) const;
  /// All connections leaving (src, src_port).
  std::vector<Connection> outgoing(ActorId src, int src_port) const;
  /// All connections leaving any output port of `src`.
  std::vector<Connection> outgoing_all(ActorId src) const;
  /// All connections entering any input port of `dst`.
  std::vector<Connection> incoming_all(ActorId dst) const;

  /// Inport actors in declaration order — the external inputs of the model.
  std::vector<ActorId> inports() const;
  /// Outport actors in declaration order — the external outputs.
  std::vector<ActorId> outports() const;

  /// Actors of a given type, in declaration order.
  std::vector<ActorId> actors_of_type(std::string_view type) const;

 private:
  std::string name_;
  std::vector<Actor> actors_;
  std::vector<Connection> connections_;

  /// Heterogeneous hashing so find_actor(string_view) allocates nothing.
  struct NameHash {
    using is_transparent = void;
    size_t operator()(std::string_view name) const {
      return std::hash<std::string_view>{}(name);
    }
  };
  std::unordered_map<std::string, ActorId, NameHash, std::equal_to<>> by_name_;
  // Indices into connections_, per actor, in ascending order.
  std::vector<std::vector<int>> in_of_;
  std::vector<std::vector<int>> out_of_;

  /// Connection indices from `lists[id]`, or none for an unknown id.
  std::vector<Connection> gather(const std::vector<std::vector<int>>& lists,
                                 ActorId id) const;
  /// Index of the connection feeding (dst, dst_port), or -1.
  int incoming_index(ActorId dst, int dst_port) const;
};

}  // namespace hcg
