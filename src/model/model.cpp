#include "model/model.hpp"

#include <algorithm>

#include "support/error.hpp"
#include "support/strings.hpp"

namespace hcg {

// ---------------------------------------------------------------------------
// Actor
// ---------------------------------------------------------------------------

bool Actor::has_param(std::string_view key) const {
  return params_.find(std::string(key)) != params_.end();
}

const std::string& Actor::param(std::string_view key) const {
  auto it = params_.find(std::string(key));
  if (it == params_.end()) {
    throw ModelError("actor '" + name_ + "' (" + type_ +
                     ") missing parameter '" + std::string(key) + "'");
  }
  return it->second;
}

std::string Actor::param_or(std::string_view key,
                            std::string_view fallback) const {
  auto it = params_.find(std::string(key));
  return it == params_.end() ? std::string(fallback) : it->second;
}

long long Actor::int_param(std::string_view key) const {
  return parse_int(param(key));
}

long long Actor::int_param_or(std::string_view key, long long fallback) const {
  if (!has_param(key)) return fallback;
  return parse_int(param(key));
}

double Actor::double_param_or(std::string_view key, double fallback) const {
  if (!has_param(key)) return fallback;
  return parse_double(param(key));
}

void Actor::set_param(std::string_view key, std::string_view value) {
  params_[std::string(key)] = std::string(value);
}

const PortSpec& Actor::input(int port) const {
  if (port < 0 || port >= input_count()) {
    throw ModelError("actor '" + name_ + "' has no input port " +
                     std::to_string(port));
  }
  return inputs_[static_cast<size_t>(port)];
}

const PortSpec& Actor::output(int port) const {
  if (port < 0 || port >= output_count()) {
    throw ModelError("actor '" + name_ + "' has no output port " +
                     std::to_string(port));
  }
  return outputs_[static_cast<size_t>(port)];
}

// ---------------------------------------------------------------------------
// Model
// ---------------------------------------------------------------------------

ActorId Model::add_actor(std::string_view name, std::string_view type) {
  if (!is_identifier(name)) {
    throw ModelError("actor name '" + std::string(name) +
                     "' is not a valid C identifier");
  }
  if (find_actor(name) != kNoActor) {
    throw ModelError("duplicate actor name '" + std::string(name) + "'");
  }
  ActorId id = static_cast<ActorId>(actors_.size());
  actors_.emplace_back(id, std::string(name), std::string(type));
  by_name_.emplace(std::string(name), id);
  in_of_.emplace_back();
  out_of_.emplace_back();
  return id;
}

void Model::connect(ActorId src, int src_port, ActorId dst, int dst_port) {
  if (src < 0 || src >= actor_count() || dst < 0 || dst >= actor_count()) {
    throw ModelError("connect: actor id out of range");
  }
  if (src_port < 0 || dst_port < 0) {
    throw ModelError("connect: negative port index");
  }
  if (incoming_index(dst, dst_port) != -1) {
    throw ModelError("input port " + std::to_string(dst_port) +
                     " of actor '" + actor(dst).name() +
                     "' already has an incoming connection");
  }
  const int index = static_cast<int>(connections_.size());
  connections_.push_back(Connection{src, src_port, dst, dst_port});
  in_of_[static_cast<size_t>(dst)].push_back(index);
  out_of_[static_cast<size_t>(src)].push_back(index);
}

void Model::rewire_input(ActorId dst, int dst_port, ActorId new_src,
                         int new_src_port) {
  if (new_src < 0 || new_src >= actor_count()) {
    throw ModelError("rewire_input: actor id out of range");
  }
  const int index = incoming_index(dst, dst_port);
  if (index == -1) {
    throw ModelError("rewire_input: input port " + std::to_string(dst_port) +
                     " of actor '" + actor(dst).name() +
                     "' has no incoming connection");
  }
  Connection& c = connections_[static_cast<size_t>(index)];
  // Move the index between source lists, keeping the new list ascending so
  // outgoing() keeps the connection-list order.
  std::vector<int>& from = out_of_[static_cast<size_t>(c.src)];
  from.erase(std::find(from.begin(), from.end(), index));
  std::vector<int>& to = out_of_[static_cast<size_t>(new_src)];
  to.insert(std::lower_bound(to.begin(), to.end(), index), index);
  c.src = new_src;
  c.src_port = new_src_port;
}

Actor& Model::actor(ActorId id) {
  if (id < 0 || id >= actor_count()) {
    throw ModelError("actor id out of range: " + std::to_string(id));
  }
  return actors_[static_cast<size_t>(id)];
}

const Actor& Model::actor(ActorId id) const {
  if (id < 0 || id >= actor_count()) {
    throw ModelError("actor id out of range: " + std::to_string(id));
  }
  return actors_[static_cast<size_t>(id)];
}

ActorId Model::find_actor(std::string_view name) const {
  auto it = by_name_.find(name);
  return it == by_name_.end() ? kNoActor : it->second;
}

const Actor& Model::actor_by_name(std::string_view name) const {
  ActorId id = find_actor(name);
  if (id == kNoActor) {
    throw ModelError("no actor named '" + std::string(name) + "'");
  }
  return actor(id);
}

int Model::incoming_index(ActorId dst, int dst_port) const {
  if (dst < 0 || dst >= actor_count()) return -1;
  for (int index : in_of_[static_cast<size_t>(dst)]) {
    if (connections_[static_cast<size_t>(index)].dst_port == dst_port) {
      return index;
    }
  }
  return -1;
}

std::vector<Connection> Model::gather(
    const std::vector<std::vector<int>>& lists, ActorId id) const {
  std::vector<Connection> out;
  if (id < 0 || id >= actor_count()) return out;
  for (int index : lists[static_cast<size_t>(id)]) {
    out.push_back(connections_[static_cast<size_t>(index)]);
  }
  return out;
}

std::optional<Connection> Model::incoming(ActorId dst, int dst_port) const {
  const int index = incoming_index(dst, dst_port);
  if (index == -1) return std::nullopt;
  return connections_[static_cast<size_t>(index)];
}

std::vector<Connection> Model::outgoing(ActorId src, int src_port) const {
  std::vector<Connection> out = outgoing_all(src);
  std::erase_if(out, [&](const Connection& c) { return c.src_port != src_port; });
  return out;
}

std::vector<Connection> Model::outgoing_all(ActorId src) const {
  return gather(out_of_, src);
}

std::vector<Connection> Model::incoming_all(ActorId dst) const {
  return gather(in_of_, dst);
}

std::vector<ActorId> Model::inports() const { return actors_of_type("Inport"); }

std::vector<ActorId> Model::outports() const {
  return actors_of_type("Outport");
}

std::vector<ActorId> Model::actors_of_type(std::string_view type) const {
  std::vector<ActorId> out;
  for (const Actor& a : actors_) {
    if (a.type() == type) out.push_back(a.id());
  }
  return out;
}

}  // namespace hcg
