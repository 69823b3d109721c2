// Reference implementation of the instance text parser.
//
// This is the iostream parser that read_instance used before the line-view
// tokenizer in io.cpp replaced it, kept verbatim as the ground truth the
// production parser is differentially fuzzed against: on every input both
// must accept or reject alike, with the same diagnostic text, the same
// to_text bytes and the same arrival, class and memory values.
//
// One divergence is deliberate. This parser sizes the `mem` footprint list
// and a `table` job's value list from the count field before it reads a
// single value, so a 40-byte record can make it allocate gigabytes, and a
// negative count makes it throw an unlocated std::length_error. The
// production parser allocates only for the values present on the line and
// rejects such records with a located diagnostic. Not for production call
// sites.
#pragma once

#include <iosfwd>
#include <string>

#include "src/jobs/instance.hpp"

namespace moldable::jobs::reference {

/// Pre-tokenizer read_instance: one std::istringstream per line.
Instance read_instance(std::istream& is, std::string default_name = {});

}  // namespace moldable::jobs::reference
