// Cross-manager BDD transfer — the wire format sidecars use when a
// symbolic packet crosses a worker boundary (paper §4.3, option 2: each
// worker has its own BDD node table, packets are serialized on one side
// and re-encoded into the receiving worker's table on the other).
//
// Format (little-endian u32 fields):
//   magic 'S2BD' | num_vars | node_count | root_index |
//   node_count × (var, low_index, high_index)
// Indices are positions in the serialized list; 0 and 1 denote the
// terminals and are not emitted. Internal nodes are listed children-first,
// so deserialization is a single bottom-up pass of MakeNode calls — the
// receiving manager re-canonicalizes, so shared structure is recovered
// even across managers with different node tables.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "bdd/bdd.h"

namespace s2::bdd {

// Serializes the function rooted at `f` (manager-independent form).
std::vector<uint8_t> Serialize(const Bdd& f);

// Rebuilds a serialized function inside `manager`. The manager must have at
// least as many variables as the serialized function uses. Throws
// util::WireFormatError on a malformed buffer.
Bdd DeserializeInto(Manager& manager, std::span<const uint8_t> bytes);

}  // namespace s2::bdd
