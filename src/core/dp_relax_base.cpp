// Baseline copy of the DP relaxation kernel, compiled with the tree's
// own flags (see core/dp_relax.hpp).
#define EVVO_RELAX_NS base
#include "core/dp_relax_kernel.hpp"
