#pragma once
// Serving-artifact invariant checks (S* rules): packed `.tmb` model
// images and registry directories.
//
// The loader (serve/tmb.cpp) already rejects corrupt images, but it
// throws on the *first* problem it meets. The linter walks the image
// with the loader's own section walk (serve::walk_tmb) and then reports
// *every* LUT record whose [off, off+need) slice escapes the double
// arena (S002), the corruption class a fuzzer or a bad pack most
// plausibly produces — before handing a loadable model to the regular
// graph/model rules.
//
// Rules:
//   S001  image unreadable / structurally corrupt (bad magic, version,
//         CRC, truncated section, implausible counts)
//   S002  LUT record points outside the double arena
//   S003  two `.tmb` files in a registry directory carry the same
//         design name (the registry would serve only one of them)

#include <string>

#include "analysis/diagnostics.hpp"

namespace tmm::analysis {

/// Lint one packed model image (header + payload bytes). `source` is
/// the location context (file path). On a clean image this falls
/// through to lint_model() on the unpacked model, so G/B/L/M findings
/// ride along.
LintReport lint_tmb_image(const std::string& image,
                          const std::string& source = "<tmb>");

/// Read `path` (S001 when unreadable) and lint the image.
LintReport lint_tmb_file(const std::string& path);

/// Lint every `*.tmb` file of a registry directory (sorted, so reports
/// are deterministic), plus the cross-file S003 duplicate-name check.
LintReport lint_registry_dir(const std::string& dir);

}  // namespace tmm::analysis
