// Tests of the MDL measurement language: parser, evaluation, and the
// measurement-file round trip.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "spice/elements.hpp"
#include "spice/engine.hpp"
#include "spice/mdl.hpp"

namespace ms = mss::spice;
namespace mdl = mss::spice::mdl;

TEST(MdlNumber, ParsesSuffixes) {
  EXPECT_DOUBLE_EQ(mdl::parse_number("4.9n"), 4.9e-9);
  EXPECT_DOUBLE_EQ(mdl::parse_number("100p"), 100e-12);
  EXPECT_DOUBLE_EQ(mdl::parse_number("2u"), 2e-6);
  EXPECT_DOUBLE_EQ(mdl::parse_number("3m"), 3e-3);
  EXPECT_DOUBLE_EQ(mdl::parse_number("5k"), 5e3);
  EXPECT_DOUBLE_EQ(mdl::parse_number("1meg"), 1e6);
  EXPECT_DOUBLE_EQ(mdl::parse_number("2g"), 2e9);
  EXPECT_DOUBLE_EQ(mdl::parse_number("7f"), 7e-15);
  EXPECT_DOUBLE_EQ(mdl::parse_number("1.5"), 1.5);
  EXPECT_DOUBLE_EQ(mdl::parse_number("-3e-9"), -3e-9);
  EXPECT_THROW((void)mdl::parse_number("abc"), std::invalid_argument);
  EXPECT_THROW((void)mdl::parse_number("1x"), std::invalid_argument);
  EXPECT_THROW((void)mdl::parse_number(""), std::invalid_argument);
}

TEST(MdlParse, AcceptsFullGrammar) {
  const auto script = mdl::Script::parse(R"(
# comment line
meas tdly delay trig v(clk) val=0.55 rise=1 targ v(q) val=0.55 fall=2
meas pavg avg i(vdd) from=1n to=10n
meas vmax max v(out)
meas vpp pp v(out) from=0 to=5n
meas q integral i(vwr)
meas vf final v(q)
meas tx cross v(out) val=0.5 rise=2
)");
  ASSERT_EQ(script.measurements().size(), 7u);
  EXPECT_EQ(script.measurements()[0].kind, mdl::Kind::Delay);
  EXPECT_EQ(script.measurements()[0].targ.nth, 2);
  EXPECT_EQ(script.measurements()[0].targ.edge, mdl::Edge::Fall);
  EXPECT_EQ(script.measurements()[1].kind, mdl::Kind::Avg);
  EXPECT_DOUBLE_EQ(script.measurements()[1].from, 1e-9);
  EXPECT_DOUBLE_EQ(script.measurements()[1].to, 10e-9);
  EXPECT_EQ(script.measurements()[6].kind, mdl::Kind::Cross);
}

TEST(MdlParse, RejectsSyntaxErrors) {
  EXPECT_THROW((void)mdl::Script::parse("bogus line\n"),
               std::invalid_argument);
  EXPECT_THROW((void)mdl::Script::parse("meas x delay v(a) val=1\n"),
               std::invalid_argument);
  EXPECT_THROW((void)mdl::Script::parse("meas x unknownkind v(a)\n"),
               std::invalid_argument);
  EXPECT_THROW((void)mdl::Script::parse("meas x cross v(a) rise=1\n"),
               std::invalid_argument); // missing val=
}

TEST(MdlParse, RejectsMalformedSignalsWithLineNumber) {
  // Signal syntax is checked at parse time, with the statement's line.
  for (const char* script :
       {"# header\nmeas x avg x(out)\n",
        "\nmeas x delay trig v(a) val=1 rise=1 targ vout val=1 rise=1\n",
        "\nmeas x cross v() val=0.5 rise=1\n"}) {
    try {
      (void)mdl::Script::parse(script);
      ADD_FAILURE() << "parsed: " << script;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("MDL line 2: bad signal"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(MdlCross, FindsNthCrossings) {
  const std::vector<double> t{0, 1, 2, 3, 4, 5, 6};
  const std::vector<double> y{0, 1, 0, 1, 0, 1, 0};
  mdl::CrossSpec spec;
  spec.value = 0.5;
  spec.edge = mdl::Edge::Rise;
  spec.nth = 2;
  const auto tc = mdl::cross_time(t, y, spec);
  ASSERT_TRUE(tc.has_value());
  EXPECT_NEAR(*tc, 2.5, 1e-12);
  spec.nth = 5;
  EXPECT_FALSE(mdl::cross_time(t, y, spec).has_value());
  spec.edge = mdl::Edge::Fall;
  spec.nth = 1;
  EXPECT_NEAR(*mdl::cross_time(t, y, spec), 1.5, 1e-12);
}

namespace {

ms::TransientResult make_rc_run(const std::vector<std::string>& probes) {
  ms::Circuit ckt;
  const int in = ckt.node("in");
  const int out = ckt.node("out");
  ckt.add(std::make_unique<ms::VoltageSource>(
      "vin", in, ms::kGround,
      std::make_unique<ms::PulseWave>(0.0, 1.0, 1e-9, 10e-12, 10e-12,
                                      100e-9)));
  ckt.add(std::make_unique<ms::Resistor>("r1", in, out, 1e3));
  ckt.add(std::make_unique<ms::Capacitor>("c1", out, ms::kGround, 1e-12));
  ms::Engine eng(ckt);
  return eng.transient(8e-9, 10e-12, probes);
}

} // namespace

TEST(MdlEval, DelayOfRcIsLnTwoTau) {
  const auto script = mdl::Script::parse(
      "meas d50 delay trig v(in) val=0.5 rise=1 targ v(out) val=0.5 rise=1\n");
  const auto tr = make_rc_run(script.signals());
  const auto res = script.evaluate(tr);
  ASSERT_EQ(res.size(), 1u);
  ASSERT_TRUE(res[0].valid);
  // 50 % delay of an RC is ln(2) tau = 0.693 ns.
  EXPECT_NEAR(res[0].value, 0.693e-9, 0.03e-9);
}

TEST(MdlEval, WindowedStatsAndFinal) {
  const auto script = mdl::Script::parse(R"(
meas vfin final v(out)
meas vmax max v(out)
meas vmin min v(out) from=0 to=0.9n
meas vavg avg v(in) from=2n to=8n
)");
  const auto tr = make_rc_run(script.signals());
  const auto res = script.evaluate(tr);
  ASSERT_EQ(res.size(), 4u);
  EXPECT_NEAR(res[0].value, 1.0, 0.01);  // settled
  EXPECT_NEAR(res[1].value, 1.0, 0.01);
  EXPECT_NEAR(res[2].value, 0.0, 1e-6);  // before the step
  EXPECT_NEAR(res[3].value, 1.0, 0.01);  // plateau average
}

TEST(MdlEval, InvalidSignalYieldsInvalidResultNotThrow) {
  // A signal the run did not store — whether or not the circuit has it —
  // evaluates as an invalid measurement.
  const auto tr = make_rc_run({"v(out)"});
  const auto script = mdl::Script::parse(
      "meas bad avg v(missing)\nmeas unprobed avg v(in)\n"
      "meas good avg v(out)\n");
  const auto res = script.evaluate(tr);
  ASSERT_EQ(res.size(), 3u);
  EXPECT_FALSE(res[0].valid);
  EXPECT_FALSE(res[1].valid);
  EXPECT_TRUE(res[2].valid);
}

TEST(MdlEval, SignalsAreExactlyWhatTheScriptReads) {
  // Distinct signals in first-use order: a delay reads trig and targ, a
  // cross its one signal; repeats appear once.
  const auto script = mdl::Script::parse(R"(
meas d50 delay trig v(in) val=0.5 rise=1 targ v(out) val=0.5 rise=1
meas iavg avg i(vin) from=2n to=8n
meas tx cross v(out) val=0.5 rise=1
meas vfin final v(in)
)");
  const std::vector<std::string> want = {"v(in)", "v(out)", "i(vin)"};
  ASSERT_EQ(script.signals(), want);

  // Probing the list makes every measurement valid...
  for (const auto& r : script.evaluate(make_rc_run(want))) {
    EXPECT_TRUE(r.valid) << r.name;
  }
  // ...and dropping any one signal invalidates a measurement that reads it.
  for (std::size_t drop = 0; drop < want.size(); ++drop) {
    auto probes = want;
    probes.erase(probes.begin() + static_cast<long>(drop));
    bool any_invalid = false;
    for (const auto& r : script.evaluate(make_rc_run(probes))) {
      any_invalid = any_invalid || !r.valid;
    }
    EXPECT_TRUE(any_invalid) << "without " << want[drop];
  }
}

TEST(MdlFile, RoundTripSkipsFailed) {
  std::vector<mdl::MeasureResult> results;
  results.push_back({"good", 4.2e-9, true});
  results.push_back({"bad", 0.0, false});
  const std::string file = mdl::write_measure_file(results);
  const auto parsed = mdl::parse_measure_file(file);
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_NEAR(parsed.at("good"), 4.2e-9, 1e-15);
}

TEST(MdlFile, ParserIsTolerant) {
  const auto parsed = mdl::parse_measure_file(
      "# header\nnot a measurement\nx = 1n\ny = garbage\n");
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_DOUBLE_EQ(parsed.at("x"), 1e-9);
}
