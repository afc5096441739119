// AVX2 copy of the DP relaxation kernel. src/core/CMakeLists.txt
// builds this file alone with -mavx2, and solve_dp calls it only on CPUs
// that report AVX2 (see core/dp_relax.hpp for the rules this TU keeps).
#define EVVO_RELAX_NS avx2
#include "core/dp_relax_kernel.hpp"

#if !defined(EVVO_SIMD_BACKEND_AVX2)
#error "dp_relax_avx2.cpp must be compiled with -mavx2"
#endif
