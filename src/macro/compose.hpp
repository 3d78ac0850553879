#pragma once
// Timing-arc helpers for merging (Section 5.2).
//
// Serial: merge.cpp replaces a whole chain u->...->w in one step
// (eval_chain / build_chain_tables): the chain's exact per-transition
// function is sampled and *resampled* onto a small index grid chosen by
// index selection. The loads at the merged pins are statically folded in
// (which is why pins electrically tied to primary-output nets must never
// be merged — their load is a boundary constraint). If the last arc is
// load-independent (a wire, or an already-merged interior arc), the
// composite becomes a 1-D slew-only table — the compact interior form
// iTimerM-style models use. compose_sense below is its sense algebra.
//
// Parallel: two arcs with the same endpoints are replaced by their
// worst-case envelope (max for late, min for early).

#include "macro/index_selection.hpp"
#include "sta/aocv.hpp"
#include "sta/timing_graph.hpp"

namespace tmm {

/// Evaluation of one arc at a corner: arc delay and slew at its to-pin.
struct ArcEval {
  double delay = 0.0;
  double out_slew = 0.0;
};

/// Evaluate a primitive (wire or LUT-backed) arc.
ArcEval eval_arc(const GraphArc& arc, unsigned el, unsigned out_rf,
                 double in_slew, double load);

/// Result of composing/enveloping arcs: ready-to-own tables.
struct ComposedTables {
  ArcSense sense = ArcSense::kPositiveUnate;
  bool load_dependent = false;
  ElRf<Lut> delay;
  ElRf<Lut> out_slew;
};

/// Sense algebra for serial chains.
ArcSense compose_sense(ArcSense a, ArcSense b);

/// Envelope of two parallel arcs (same from/to): max delay/slew in the
/// late corner, min in the early corner, sampled jointly. When AOCV is
/// active, unbaked parents are derated with `from_depth` while sampling
/// (the result is always marked baked by the caller).
ComposedTables compose_parallel(const TimingGraph& g, const GraphArc& a,
                                const GraphArc& b, double sink_load_ff,
                                const IndexSelectionConfig& cfg,
                                const AocvConfig& aocv = {},
                                std::uint32_t from_depth = 0);

/// Default slew candidate axis used when an arc has no LUT grid of its
/// own (pure wire chains).
std::vector<double> default_slew_axis();

}  // namespace tmm
