// MDL — Measurement Descriptive Language.
//
// The paper's circuit flow (Sec. II/IV-A): "a template file is created for
// the netlist, stimulus and Measurement Descriptive Language (MDL) ...
// the SPICE simulation generates [an] output measurement file that is then
// parsed to extract the required cell level parameters such as switching
// current, delay and energy values."
//
// This module implements that pipeline stage: a small measurement language
// evaluated over a TransientResult, plus writer/parser for the textual
// measurement file the downstream tools consume.
//
// Script syntax (one statement per line, '#' comments):
//
//   meas <name> delay    trig <sig> val=<v> (rise|fall)=<n>
//                        targ <sig> val=<v> (rise|fall)=<n>
//   meas <name> avg      <sig> [from=<t>] [to=<t>]
//   meas <name> rms      <sig> [from=<t>] [to=<t>]
//   meas <name> min      <sig> [from=<t>] [to=<t>]
//   meas <name> max      <sig> [from=<t>] [to=<t>]
//   meas <name> pp       <sig> [from=<t>] [to=<t>]
//   meas <name> integral <sig> [from=<t>] [to=<t>]
//   meas <name> final    <sig>
//   meas <name> cross    <sig> val=<v> (rise|fall)=<n>
//
// where <sig> is v(<node>) or i(<vsource>) — anything else is a syntax
// error of its line — and numbers accept SPICE unit suffixes (f p n u m k
// meg g).
//
// <sig> is the probe grammar of Engine::transient, which stores only the
// signals it is asked for: a script lists what it reads (`signals()`), the
// caller passes that list as the run's probes, and evaluation reads the
// columns by the same strings. A measurement over a signal the run did not
// probe evaluates as invalid.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "spice/engine.hpp"

namespace mss::spice::mdl {

/// Crossing edge selector.
enum class Edge { Rise, Fall };

/// A level-crossing event spec: the `nth` crossing of `signal` through
/// `value` with the given edge.
struct CrossSpec {
  std::string signal; ///< "v(node)" or "i(source)"
  double value = 0.0;
  Edge edge = Edge::Rise;
  int nth = 1;
};

/// Measurement kinds supported by the language.
enum class Kind {
  Delay,    ///< time from trig crossing to targ crossing
  Avg,      ///< time average over the window
  Rms,      ///< root-mean-square over the window
  Min,      ///< minimum over the window
  Max,      ///< maximum over the window
  PeakToPeak, ///< max - min over the window
  Integral, ///< trapezoidal integral over the window
  Final,    ///< value at the last time point
  Cross,    ///< time of the nth crossing
};

/// One parsed measurement statement.
struct Measurement {
  std::string name;
  Kind kind = Kind::Avg;
  std::string signal;             ///< for non-delay kinds
  CrossSpec trig;                 ///< for Delay
  CrossSpec targ;                 ///< for Delay; also reused for Cross
  double from = 0.0;              ///< window start [s]
  double to = -1.0;               ///< window end [s]; < 0 means "end of run"
};

/// Evaluation outcome of one measurement.
struct MeasureResult {
  std::string name;
  double value = 0.0;
  bool valid = false; ///< false when e.g. the crossing never happened
};

/// A parsed MDL script.
class Script {
 public:
  /// Parses the textual form; throws std::invalid_argument with a line
  /// number on syntax errors.
  [[nodiscard]] static Script parse(const std::string& text);

  /// Programmatic construction.
  void add(Measurement m) { measurements_.push_back(std::move(m)); }

  /// The parsed statements.
  [[nodiscard]] const std::vector<Measurement>& measurements() const {
    return measurements_;
  }

  /// The distinct signals the measurements read, in first-use order: the
  /// probes a transient must store for `evaluate`.
  [[nodiscard]] std::vector<std::string> signals() const;

  /// Evaluates every measurement over a transient result.
  [[nodiscard]] std::vector<MeasureResult> evaluate(
      const TransientResult& tr) const;

 private:
  std::vector<Measurement> measurements_;
};

/// Parses a SPICE-style number with optional unit suffix ("4.9n" = 4.9e-9).
/// Throws std::invalid_argument on malformed input.
[[nodiscard]] double parse_number(const std::string& token);

/// Time of the nth level crossing; nullopt when it never occurs.
[[nodiscard]] std::optional<double> cross_time(
    const std::vector<double>& times, const std::vector<double>& values,
    const CrossSpec& spec);

/// Renders the "output measurement file" (name = value lines).
[[nodiscard]] std::string write_measure_file(
    const std::vector<MeasureResult>& results);

/// Parses a measurement file back into a name -> value map, skipping
/// invalid entries — the downstream "File Parser" stage of the flow.
[[nodiscard]] std::map<std::string, double> parse_measure_file(
    const std::string& text);

} // namespace mss::spice::mdl
