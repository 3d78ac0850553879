#pragma once
// Compact binary macro-model format (`.tmb`) for the serving engine
// (docs/SERVING.md).
//
// The offline flow writes macro models as self-contained text (`.macro`,
// macro/model_io.hpp), which is the right archival form but costs a full
// tokenize-and-validate pass per load. A serving process loads many
// models at startup and must not pay that: `.tmb` is the same model as
// one versioned, checksummed, little-endian flat image — fixed-size node
// /arc/check records plus a single contiguous double arena holding every
// LUT surface — so loading is one read, one CRC pass and one linear
// record walk with no tokenizing.
//
// Doubles are stored as raw IEEE-754 bit patterns, so a model packed
// from a parsed `.macro` evaluates bit-identically to the text-loaded
// original — the property the serve loadgen asserts against the offline
// `tmm evaluate` path.
//
// Corruption (bad magic, wrong version, CRC mismatch, out-of-range
// record references) raises fault::FlowError(kParse) with the file as
// context; a torn or truncated file can never load as a wrong model.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "macro/macro_model.hpp"

namespace tmm::serve {

/// Format constants, exposed for tests and the corruption corpus.
inline constexpr char kTmbMagic[4] = {'T', 'M', 'B', '1'};
inline constexpr std::uint32_t kTmbVersion = 1;
/// Header: magic(4) + version(4) + payload_size(8) + payload_crc(4).
inline constexpr std::size_t kTmbHeaderBytes = 20;

/// CRC-32 (IEEE 802.3, reflected) of `data`; the checksum stamped into
/// every `.tmb` header and validated on load.
std::uint32_t crc32(const void* data, std::size_t size) noexcept;

/// One record of the LUT table section: index sizes and where the
/// surface starts in the double arena.
struct TmbLut {
  std::uint32_t ni = 0;  ///< slew-axis size (0 = scalar)
  std::uint32_t nj = 0;  ///< load-axis size (0 = 1-D)
  std::uint64_t off = 0;
  /// Doubles the surface spans from `off`: both indices and the values.
  std::uint64_t doubles() const noexcept;
  /// True when the surface lies inside an arena of `arena_doubles`.
  bool fits(std::uint64_t arena_doubles) const noexcept;
};

/// Where the sections of a `.tmb` image sit, as found by walk_tmb.
/// Offsets are byte offsets into the image.
struct TmbLayout {
  std::string_view design_name;
  std::uint64_t nodes = 0;
  std::uint64_t po_loads = 0;
  std::uint64_t arcs = 0;
  std::uint64_t checks = 0;
  /// The node records; the attached-PO, arc and check records follow.
  std::size_t records = 0;
  std::vector<TmbLut> tables;
  std::string_view strtab;
  std::size_t arena = 0;
  std::uint64_t arena_doubles = 0;
};

/// Walk the header (magic, version, payload size, CRC) and the sections
/// of `image`, decoding only the LUT table section: node, arc and check
/// records are located but not read, and the arena is neither read nor
/// checked against the table records. Fills `out` and returns "", or
/// returns the first structural problem found.
std::string walk_tmb(std::string_view image, TmbLayout& out);

/// Serialize `model` into the binary image (header + payload). Dead
/// nodes/arcs/checks are compacted out exactly as the text writer does,
/// so pack(read(".macro")) preserves record order and therefore
/// evaluation bit-for-bit.
std::string pack_model(const MacroModel& model);

/// Parse a binary image produced by pack_model. `source` is the error
/// context (file path). Throws fault::FlowError(kParse) on any
/// corruption, kNumeric via Lut validation on non-finite surfaces.
MacroModel unpack_model(const std::string& image,
                        const std::string& source = "<tmb>");

/// Pack to `path` via util::atomic_write_file; returns bytes written.
std::size_t write_tmb_file(const MacroModel& model, const std::string& path);

/// Load a `.tmb` file. Throws fault::FlowError(kIo) when unreadable,
/// kParse/kNumeric on corruption. Fault site: serve.load_model.
MacroModel read_tmb_file(const std::string& path);

}  // namespace tmm::serve
