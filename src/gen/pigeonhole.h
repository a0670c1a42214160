#ifndef CSAT_GEN_PIGEONHOLE_H
#define CSAT_GEN_PIGEONHOLE_H

/// \file pigeonhole.h
/// The pigeonhole principle, the resolution-hard UNSAT stressor of the
/// test, bench and server suites.

#include "cnf/cnf.h"

namespace csat::gen {

/// PHP(holes+1, holes) as CNF: variable p*holes+h says pigeon p sits in
/// hole h. Always UNSAT; runtime scales steeply with \p holes.
cnf::Cnf pigeonhole(int holes);

}  // namespace csat::gen

#endif  // CSAT_GEN_PIGEONHOLE_H
