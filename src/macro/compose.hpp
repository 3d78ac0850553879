#pragma once
// Re-characterization of merged arcs (Section 5.2, Fig. 9). This module
// owns how a merged arc's tables are computed; macro/merge.cpp owns the
// graph surgery (which pins go, which arcs are spliced in and folded)
// and asks here for the tables of every arc it creates.
//
// Both kinds of merged arc go through one resample: the arc's exact
// function is sampled densely (densify_axis of the source grids), index
// selection picks slew indices jointly over every corner, surface and
// load column, then load indices on the chosen slews, and the samples
// at the chosen indices become table2d / table1d / scalar tables.
//
// Serial (compose_chain): a chain u->...->w replaces the removed pins
// between u and w; its exact function is the chain evaluated the way
// the analysis engine walks the unmerged pins. The loads at the merged
// pins are statically folded in (which is why pins electrically tied to
// primary-output nets must never be merged — their load is a boundary
// constraint). If the last arc is load-independent (a wire, or an
// already-merged interior arc), the composite becomes a 1-D slew-only
// table — the compact interior form iTimerM-style models use.
//
// Parallel (compose_parallel): two arcs with the same endpoints are
// replaced by their worst-case envelope (max for late, min for early).

#include <vector>

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

/// True for a cell arc with 2-D (slew x load) tables.
bool arc_load_dependent(const GraphArc& arc);

/// Result of composing/enveloping arcs: ready-to-own tables.
struct ComposedTables {
  ArcSense sense = ArcSense::kPositiveUnate;
  ElRf<Lut> delay;
  ElRf<Lut> out_slew;
};

/// Sense algebra for serial chains.
ArcSense compose_sense(ArcSense a, ArcSense b);

/// One primitive segment of a merged chain. `load_ff` is the statically
/// folded load the segment's lookup uses; the *last* load-dependent
/// segment of a chain uses the caller-provided load instead. `depth` is
/// the from-pin's AOCV stage depth (for baking depth derates).
struct ChainSeg {
  GraphArc arc;    // value copy of the primitive arc (tables by pointer)
  double load_ff;  // static load at arc.to, captured at merge time
  std::uint32_t depth = 0;
};

using Chain = std::vector<ChainSeg>;

/// compose_sense folded over the chain's segments.
ArcSense chain_sense(const Chain& chain);

/// Tables for one sense variant of a chain. The start transition of
/// each (el, orf) surface is pinned by the variant: positive-unate reads
/// input transition == orf, negative-unate the opposite — so at analysis
/// time the engine applies exactly the per-transition delays the
/// unmerged chain would have produced. Unbaked cell segments are derated
/// with their own depth when AOCV is active.
ComposedTables compose_chain(const Chain& chain, ArcSense variant,
                             const IndexSelectionConfig& cfg,
                             const AocvConfig& aocv = {});

/// Envelope of two parallel arcs (same from/to): max delay/slew in the
/// late corner, min in the early corner, sampled jointly. When AOCV is
/// active, unbaked parents are derated with `from_depth` while sampling
/// (the result is always marked baked by the caller).
ComposedTables compose_parallel(const GraphArc& a, const GraphArc& b,
                                const IndexSelectionConfig& cfg,
                                const AocvConfig& aocv = {},
                                std::uint32_t from_depth = 0);

}  // namespace tmm
