// Scalar oracle kernel build. CMake compiles this TU with
// -fno-tree-vectorize -fno-tree-slp-vectorize (GCC 12 has no `novector`
// pragma), so the loops execute one lane at a time; kernels_test asserts
// the production build's outputs are bit-identical to these.

#define LIRA_KERNEL_NS ref
#include "lira/common/kernels_impl.inc"
