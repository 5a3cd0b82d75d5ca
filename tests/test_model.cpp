// Unit tests for the model IR: data types, shapes, tensors, Model/Actor,
// the builder and the XML loader.
#include <gtest/gtest.h>

#include "model/builder.hpp"
#include "model/datatype.hpp"
#include "model/loader.hpp"
#include "model/model.hpp"
#include "model/tensor.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace hcg {
namespace {

// ---------------------------------------------------------------------------
// DataType
// ---------------------------------------------------------------------------

TEST(DataType, BitWidths) {
  EXPECT_EQ(bit_width(DataType::kInt8), 8);
  EXPECT_EQ(bit_width(DataType::kUInt16), 16);
  EXPECT_EQ(bit_width(DataType::kInt32), 32);
  EXPECT_EQ(bit_width(DataType::kFloat32), 32);
  EXPECT_EQ(bit_width(DataType::kFloat64), 64);
  EXPECT_EQ(bit_width(DataType::kComplex64), 64);
  EXPECT_EQ(byte_width(DataType::kComplex128), 16);
}

TEST(DataType, Predicates) {
  EXPECT_TRUE(is_float(DataType::kFloat32));
  EXPECT_FALSE(is_float(DataType::kInt32));
  EXPECT_TRUE(is_signed_int(DataType::kInt8));
  EXPECT_FALSE(is_signed_int(DataType::kUInt8));
  EXPECT_TRUE(is_unsigned_int(DataType::kUInt64));
  EXPECT_TRUE(is_integer(DataType::kInt16));
  EXPECT_FALSE(is_integer(DataType::kFloat64));
  EXPECT_TRUE(is_complex(DataType::kComplex64));
  EXPECT_FALSE(is_complex(DataType::kFloat32));
}

TEST(DataType, NamesRoundTrip) {
  for (DataType t : {DataType::kInt8, DataType::kInt16, DataType::kInt32,
                     DataType::kInt64, DataType::kUInt8, DataType::kUInt16,
                     DataType::kUInt32, DataType::kUInt64, DataType::kFloat32,
                     DataType::kFloat64, DataType::kComplex64,
                     DataType::kComplex128}) {
    EXPECT_EQ(parse_datatype(short_name(t)), t);
  }
}

TEST(DataType, ParseRejectsUnknown) {
  EXPECT_THROW(parse_datatype("i128"), ParseError);
  EXPECT_THROW(parse_datatype(""), ParseError);
}

TEST(DataType, CNames) {
  EXPECT_EQ(c_name(DataType::kInt32), "int32_t");
  EXPECT_EQ(c_name(DataType::kFloat32), "float");
  EXPECT_EQ(c_name(DataType::kComplex64), "float");  // interleaved pairs
}

TEST(DataType, ComponentType) {
  EXPECT_EQ(component_type(DataType::kComplex64), DataType::kFloat32);
  EXPECT_EQ(component_type(DataType::kComplex128), DataType::kFloat64);
  EXPECT_EQ(component_type(DataType::kInt32), DataType::kInt32);
}

// ---------------------------------------------------------------------------
// Shape
// ---------------------------------------------------------------------------

TEST(Shape, ElementsAndRank) {
  EXPECT_EQ(Shape{}.elements(), 1);
  EXPECT_TRUE(Shape{}.is_scalar());
  EXPECT_EQ(Shape({8}).elements(), 8);
  EXPECT_EQ(Shape({3, 4}).elements(), 12);
  EXPECT_EQ(Shape({3, 4}).rank(), 2);
}

TEST(Shape, ToStringAndParseRoundTrip) {
  EXPECT_EQ(Shape{}.to_string(), "scalar");
  EXPECT_EQ(Shape({1024}).to_string(), "1024");
  EXPECT_EQ(Shape({4, 4}).to_string(), "4x4");
  EXPECT_EQ(Shape::parse("scalar"), Shape{});
  EXPECT_EQ(Shape::parse(""), Shape{});
  EXPECT_EQ(Shape::parse("16"), Shape({16}));
  EXPECT_EQ(Shape::parse(" 3x5 "), Shape({3, 5}));
}

TEST(Shape, ParseRejectsBadDimensions) {
  EXPECT_THROW(Shape::parse("0"), ParseError);
  EXPECT_THROW(Shape::parse("-4"), ParseError);
  EXPECT_THROW(Shape::parse("4xx4"), ParseError);
  EXPECT_THROW(Shape::parse("abc"), ParseError);
}

// ---------------------------------------------------------------------------
// Tensor
// ---------------------------------------------------------------------------

TEST(Tensor, AllocatesZeroedStorage) {
  Tensor t(DataType::kInt32, Shape({5}));
  EXPECT_EQ(t.byte_size(), 20u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(t.get_int(i), 0);
}

TEST(Tensor, ComplexStoresInterleavedPairs) {
  Tensor t(DataType::kComplex64, Shape({3}));
  EXPECT_EQ(t.byte_size(), 24u);  // 3 * 2 floats
  t.as<float>()[4] = 2.5f;        // element 2, real part
  EXPECT_FLOAT_EQ(t.as<float>()[4], 2.5f);
}

TEST(Tensor, GetSetDoubleAcrossTypes) {
  for (DataType type : {DataType::kInt8, DataType::kInt16, DataType::kUInt32,
                        DataType::kFloat32, DataType::kFloat64}) {
    Tensor t(type, Shape({4}));
    t.set_double(2, 7.0);
    EXPECT_DOUBLE_EQ(t.get_double(2), 7.0) << short_name(type);
  }
}

TEST(Tensor, GetDoubleOutOfRangeThrows) {
  Tensor t(DataType::kInt32, Shape({2}));
  EXPECT_THROW(t.get_double(2), InternalError);
  EXPECT_THROW(t.set_double(-1, 0.0), InternalError);
}

TEST(Tensor, BytesEqual) {
  Tensor a(DataType::kInt32, Shape({3}));
  Tensor b(DataType::kInt32, Shape({3}));
  EXPECT_TRUE(a.bytes_equal(b));
  b.set_int(1, 9);
  EXPECT_FALSE(a.bytes_equal(b));
  Tensor c(DataType::kInt16, Shape({3}));
  EXPECT_FALSE(a.bytes_equal(c));
}

TEST(Tensor, MaxAbsDifference) {
  Tensor a(DataType::kFloat32, Shape({3}));
  Tensor b(DataType::kFloat32, Shape({3}));
  a.as<float>()[1] = 1.0f;
  b.as<float>()[1] = 1.5f;
  EXPECT_FLOAT_EQ(static_cast<float>(a.max_abs_difference(b)), 0.5f);
}

TEST(Tensor, MaxAbsDifferenceComplexCoversBothComponents) {
  Tensor a(DataType::kComplex64, Shape({2}));
  Tensor b(DataType::kComplex64, Shape({2}));
  b.as<float>()[3] = -2.0f;  // imag of element 1
  EXPECT_FLOAT_EQ(static_cast<float>(a.max_abs_difference(b)), 2.0f);
}

TEST(Tensor, MaxAbsDifferenceShapeMismatchThrows) {
  Tensor a(DataType::kFloat32, Shape({3}));
  Tensor b(DataType::kFloat32, Shape({4}));
  EXPECT_THROW(a.max_abs_difference(b), InternalError);
}

// ---------------------------------------------------------------------------
// Model structure
// ---------------------------------------------------------------------------

TEST(Model, AddActorAssignsSequentialIds) {
  Model m("t");
  EXPECT_EQ(m.add_actor("a", "Add"), 0);
  EXPECT_EQ(m.add_actor("b", "Sub"), 1);
  EXPECT_EQ(m.actor_count(), 2);
  EXPECT_EQ(m.actor(0).name(), "a");
  EXPECT_EQ(m.actor(1).type(), "Sub");
}

TEST(Model, RejectsDuplicateAndInvalidNames) {
  Model m("t");
  m.add_actor("a", "Add");
  EXPECT_THROW(m.add_actor("a", "Sub"), ModelError);
  EXPECT_THROW(m.add_actor("bad name", "Add"), ModelError);
  EXPECT_THROW(m.add_actor("9x", "Add"), ModelError);
}

TEST(Model, ConnectRejectsDoubleDrivenInput) {
  Model m("t");
  ActorId a = m.add_actor("a", "Inport");
  ActorId b = m.add_actor("b", "Inport");
  ActorId c = m.add_actor("c", "Add");
  m.connect(a, 0, c, 0);
  m.connect(b, 0, c, 1);
  EXPECT_THROW(m.connect(b, 0, c, 0), ModelError);
}

TEST(Model, ConnectValidatesIds) {
  Model m("t");
  ActorId a = m.add_actor("a", "Inport");
  EXPECT_THROW(m.connect(a, 0, 99, 0), ModelError);
  EXPECT_THROW(m.connect(-1, 0, a, 0), ModelError);
  EXPECT_THROW(m.connect(a, -1, a, 0), ModelError);
}

TEST(Model, IncomingAndOutgoingQueries) {
  Model m("t");
  ActorId a = m.add_actor("a", "Inport");
  ActorId b = m.add_actor("b", "Abs");
  ActorId c = m.add_actor("c", "Outport");
  m.connect(a, 0, b, 0);
  m.connect(b, 0, c, 0);
  ASSERT_TRUE(m.incoming(b, 0).has_value());
  EXPECT_EQ(m.incoming(b, 0)->src, a);
  EXPECT_FALSE(m.incoming(a, 0).has_value());
  EXPECT_EQ(m.outgoing(a, 0).size(), 1u);
  EXPECT_EQ(m.outgoing_all(b).size(), 1u);
}

TEST(Model, FindActorAndPortsByType) {
  Model m("t");
  m.add_actor("x", "Inport");
  m.add_actor("f", "FFT");
  m.add_actor("y", "Outport");
  EXPECT_EQ(m.find_actor("f"), 1);
  EXPECT_EQ(m.find_actor("nope"), kNoActor);
  EXPECT_EQ(m.actor_by_name("y").id(), 2);
  EXPECT_THROW(m.actor_by_name("nope"), ModelError);
  EXPECT_EQ(m.inports(), std::vector<ActorId>{0});
  EXPECT_EQ(m.outports(), std::vector<ActorId>{2});
  EXPECT_EQ(m.actors_of_type("FFT"), std::vector<ActorId>{1});
}

TEST(Model, ActorParams) {
  Model m("t");
  Actor& a = m.actor(m.add_actor("g", "Gain"));
  a.set_param("gain", "2.5");
  EXPECT_TRUE(a.has_param("gain"));
  EXPECT_EQ(a.param("gain"), "2.5");
  EXPECT_EQ(a.param_or("missing", "x"), "x");
  EXPECT_DOUBLE_EQ(a.double_param_or("gain", 0), 2.5);
  EXPECT_EQ(a.int_param_or("amount", 7), 7);
  EXPECT_THROW(a.param("missing"), ModelError);
  EXPECT_THROW(a.int_param("missing"), ModelError);
}

TEST(Model, PortAccessBeforeResolveThrows) {
  Model m("t");
  ActorId a = m.add_actor("a", "Add");
  EXPECT_FALSE(m.actor(a).is_resolved());
  EXPECT_THROW(m.actor(a).input(0), ModelError);
  EXPECT_THROW(m.actor(a).output(0), ModelError);
}

// The message of the ModelError `fn` throws ("" when it does not throw).
template <typename Fn>
std::string model_error(Fn&& fn) {
  try {
    fn();
  } catch (const ModelError& e) {
    return e.what();
  }
  return "";
}

// Every wiring query answered from the index must equal a linear scan of
// connections(), order included.
void expect_index_matches_scan(const Model& m, int max_port) {
  const std::vector<Connection>& all = m.connections();
  for (ActorId id = -1; id <= m.actor_count(); ++id) {
    std::vector<Connection> in_all, out_all;
    for (const Connection& c : all) {
      if (c.dst == id) in_all.push_back(c);
      if (c.src == id) out_all.push_back(c);
    }
    EXPECT_EQ(m.incoming_all(id), in_all) << "actor " << id;
    EXPECT_EQ(m.outgoing_all(id), out_all) << "actor " << id;
    for (int port = 0; port <= max_port; ++port) {
      std::optional<Connection> in;
      std::vector<Connection> out;
      for (const Connection& c : all) {
        if (c.dst == id && c.dst_port == port && !in) in = c;
        if (c.src == id && c.src_port == port) out.push_back(c);
      }
      EXPECT_EQ(m.incoming(id, port), in) << "actor " << id << " port " << port;
      EXPECT_EQ(m.outgoing(id, port), out) << "actor " << id << " port " << port;
    }
  }
  for (const Actor& a : m.actors()) EXPECT_EQ(m.find_actor(a.name()), a.id());
  EXPECT_EQ(m.find_actor("absent"), kNoActor);
}

TEST(Model, WiringIndexMatchesLinearScanUnderRandomEdits) {
  constexpr int kPorts = 3;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    Model m("t");
    for (int step = 0; step < 120; ++step) {
      const int n = m.actor_count();
      const auto pick = [&] {
        return static_cast<ActorId>(rng.uniform_int(0, n - 1));
      };
      const auto port = [&] {
        return static_cast<int>(rng.uniform_int(0, kPorts - 1));
      };
      const std::int64_t action = n < 2 ? 0 : rng.uniform_int(0, 9);
      if (action <= 1) {
        const std::string name = "a" + std::to_string(n);
        ASSERT_EQ(m.add_actor(name, "Add"), n);
        EXPECT_EQ(model_error([&] { m.add_actor(name, "Sub"); }),
                  "duplicate actor name '" + name + "'");
      } else if (action <= 6) {
        const ActorId src = pick(), dst = pick();
        const int src_port = port(), dst_port = port();
        if (m.incoming(dst, dst_port)) {
          EXPECT_EQ(model_error([&] { m.connect(src, src_port, dst, dst_port); }),
                    "input port " + std::to_string(dst_port) + " of actor '" +
                        m.actor(dst).name() +
                        "' already has an incoming connection");
        } else {
          m.connect(src, src_port, dst, dst_port);
        }
      } else {
        // Lane narrowing's splice: re-point an existing input at a new source.
        const ActorId dst = pick(), new_src = pick();
        const int dst_port = port();
        if (m.incoming(dst, dst_port)) {
          m.rewire_input(dst, dst_port, new_src, port());
        } else {
          EXPECT_EQ(model_error([&] { m.rewire_input(dst, dst_port, new_src, 0); }),
                    "rewire_input: input port " + std::to_string(dst_port) +
                        " of actor '" + m.actor(dst).name() +
                        "' has no incoming connection");
        }
      }
      expect_index_matches_scan(m, kPorts);
      if (::testing::Test::HasFailure()) {
        FAIL() << "seed " << seed << " step " << step;
      }
    }
    const Model copy = m;
    EXPECT_EQ(copy.connections(), m.connections());
    expect_index_matches_scan(copy, kPorts);
  }
}

TEST(Model, RewireInputKeepsOutgoingInConnectionOrder) {
  Model m("t");
  const ActorId a = m.add_actor("a", "Inport");
  const ActorId b = m.add_actor("b", "Inport");
  const ActorId c = m.add_actor("c", "Add");
  const ActorId d = m.add_actor("d", "Add");
  m.connect(a, 0, c, 0);  // #0
  m.connect(b, 0, c, 1);  // #1
  m.connect(a, 0, d, 0);  // #2
  m.connect(b, 0, d, 1);  // #3
  m.rewire_input(d, 1, a, 0);
  m.rewire_input(c, 1, a, 0);
  const std::vector<Connection> out = m.outgoing(a, 0);
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out[0].dst, c);
  EXPECT_EQ(out[0].dst_port, 0);
  EXPECT_EQ(out[1].dst, c);
  EXPECT_EQ(out[1].dst_port, 1);
  EXPECT_EQ(out[2].dst, d);
  EXPECT_EQ(out[3].dst, d);
  EXPECT_TRUE(m.outgoing_all(b).empty());
  EXPECT_THROW(m.rewire_input(d, 0, 99, 0), ModelError);
  EXPECT_THROW(m.rewire_input(99, 0, a, 0), ModelError);
}

// ---------------------------------------------------------------------------
// Builder
// ---------------------------------------------------------------------------

TEST(Builder, WiresActorsInPortOrder) {
  ModelBuilder b("m");
  PortRef x = b.inport("x", DataType::kInt32, Shape({4}));
  PortRef y = b.inport("y", DataType::kInt32, Shape({4}));
  PortRef s = b.actor("s", "Sub", {x, y});
  b.outport("o", s);
  Model m = b.take();
  EXPECT_EQ(m.actor_count(), 4);
  EXPECT_EQ(m.incoming(m.find_actor("s"), 0)->src, m.find_actor("x"));
  EXPECT_EQ(m.incoming(m.find_actor("s"), 1)->src, m.find_actor("y"));
}

TEST(Builder, SetsSourceParams) {
  ModelBuilder b("m");
  b.inport("x", DataType::kFloat32, Shape({8}));
  b.constant("c", DataType::kInt16, Shape({2, 2}), "1,2,3,4");
  Model m = b.take();
  EXPECT_EQ(m.actor_by_name("x").param("dtype"), "f32");
  EXPECT_EQ(m.actor_by_name("x").param("shape"), "8");
  EXPECT_EQ(m.actor_by_name("c").param("shape"), "2x2");
  EXPECT_EQ(m.actor_by_name("c").param("value"), "1,2,3,4");
}

TEST(Builder, ActorParamsPassThrough) {
  ModelBuilder b("m");
  PortRef x = b.inport("x", DataType::kInt32, Shape({4}));
  b.actor("sh", "Shr", {x}, {{"amount", "2"}});
  Model m = b.take();
  EXPECT_EQ(m.actor_by_name("sh").int_param("amount"), 2);
}

// ---------------------------------------------------------------------------
// Loader
// ---------------------------------------------------------------------------

constexpr const char* kFirXml = R"(
<model name="fir">
  <actor name="x"    type="Inport"   dtype="i32" shape="16"/>
  <actor name="taps" type="Constant" dtype="i32" shape="16" value="7"/>
  <actor name="m"    type="Mul"/>
  <actor name="y"    type="Outport"/>
  <connect from="x"      to="m:0"/>
  <connect from="taps"   to="m:1"/>
  <connect from="m"      to="y"/>
</model>
)";

TEST(Loader, ParsesActorsParamsConnections) {
  Model m = load_model(kFirXml);
  EXPECT_EQ(m.name(), "fir");
  EXPECT_EQ(m.actor_count(), 4);
  EXPECT_EQ(m.actor_by_name("x").param("dtype"), "i32");
  EXPECT_EQ(m.actor_by_name("taps").param("value"), "7");
  EXPECT_EQ(m.incoming(m.find_actor("m"), 1)->src, m.find_actor("taps"));
  EXPECT_EQ(m.incoming(m.find_actor("y"), 0)->src, m.find_actor("m"));
}

TEST(Loader, AcceptsParamChildren) {
  Model m = load_model(
      "<model name=\"t\"><actor name=\"g\" type=\"Gain\">"
      "<param name=\"gain\" value=\"0.5\"/></actor></model>");
  EXPECT_EQ(m.actor_by_name("g").param("gain"), "0.5");
}

TEST(Loader, RejectsUnknownEndpoint) {
  EXPECT_THROW(load_model("<model name=\"t\"><actor name=\"a\" type=\"Abs\"/>"
                          "<connect from=\"ghost\" to=\"a\"/></model>"),
               ModelError);
}

TEST(Loader, RejectsWrongRootElement) {
  EXPECT_THROW(load_model("<thing name=\"t\"/>"), ParseError);
}

TEST(Loader, RoundTripsThroughWriter) {
  Model m = load_model(kFirXml);
  Model again = load_model(model_to_xml(m));
  EXPECT_EQ(again.actor_count(), m.actor_count());
  EXPECT_EQ(again.connections().size(), m.connections().size());
  EXPECT_EQ(again.actor_by_name("taps").param("value"), "7");
  EXPECT_EQ(again.incoming(again.find_actor("m"), 1)->src,
            again.find_actor("taps"));
}

}  // namespace
}  // namespace hcg
