// Graphviz (DOT) export of application sets and hardened systems, for
// inspecting benchmark structure and the replica/voter topologies the
// hardening transform produces (`ftmc dot system.ftmc | dot -Tsvg ...`).
#pragma once

#include <iosfwd>

#include "ftmc/hardening/hardening.hpp"
#include "ftmc/model/application_set.hpp"

namespace ftmc::io {

/// One cluster per application; droppable applications are dashed and
/// annotated with their service value, critical ones with f_t.
void write_dot(std::ostream& out, const model::ApplicationSet& apps);

/// Hardened view: nodes carry their role (replica/voter/standby) and PE;
/// standby activation (control) edges are dashed.
void write_dot(std::ostream& out, const model::Architecture& arch,
               const hardening::HardenedSystem& system);

}  // namespace ftmc::io
