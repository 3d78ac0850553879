#pragma once
// Macro-model text serialization. The written form is self-contained
// (every NLDM surface is embedded, whether it originated in the cell
// library or in re-characterization), so a consumer needs no library to
// use the model — mirroring how extracted .lib models ship. The byte
// count of this form is the model-file-size metric of Tables 3-5.

#include <iosfwd>
#include <string>

#include "fault/fault.hpp"
#include "macro/macro_model.hpp"

namespace tmm {

/// Serialize; returns bytes written.
std::size_t write_macro_model(const MacroModel& model, std::ostream& os);

/// Measure the serialized size without keeping the bytes.
std::size_t macro_model_size_bytes(const MacroModel& model);

/// Parse a model previously produced by write_macro_model. Malformed
/// input raises fault::FlowError(kParse) with `source`:line and the
/// offending token (dangling node refs, NaN LUT entries, bad counts);
/// no input crashes the parser.
MacroModel read_macro_model(std::istream& is, std::string source = "<macro>");

/// read_macro_model from a file, with the path as error context.
MacroModel read_macro_model_file(const std::string& path);

/// Register the boundary ports that a deserialized graph's nodes declare
/// (role + port_ordinal) via set_primary_input/set_primary_output. The
/// PI ordinals and the PO ordinals must each be exactly 0..k-1: an
/// ordinal at or above the node count, a duplicate or a gap fails with
/// kParse and nothing is registered. Shared by the .macro and .tmb
/// readers, which wrap the message in their own source context.
fault::Status bind_port_ordinals(TimingGraph& g);

/// Atomic write to `path` (util::atomic_write_file): interrupted runs
/// never leave a torn model file. Returns bytes written.
std::size_t write_macro_model_file(const MacroModel& model,
                                   const std::string& path);

}  // namespace tmm
