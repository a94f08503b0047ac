// Blocking ghost-cell exchange of scalar mesh fields across the brick
// decomposition (the PM force components before interpolation).
//
// The exchange runs axis by axis (x, then y, then z) over slabs that span
// the already-extended transverse range, so edge and corner ghosts are
// filled transitively.  Buffered sends keep periodic rings deadlock-free.
// The phase-space halo and the deposit fold are split into begin/finish
// plans instead (mesh/halo_plan.hpp).
#pragma once

#include "comm/cart.hpp"
#include "mesh/grid.hpp"

namespace v6d::mesh {

/// Exchange ghost cells of a scalar mesh field.
void exchange_grid_halo(Grid3D<double>& g, comm::CartTopology& cart);
void exchange_grid_halo(Grid3D<float>& g, comm::CartTopology& cart);

}  // namespace v6d::mesh
