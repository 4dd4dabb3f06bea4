// The production kernel build: default codegen, auto-vectorized (see
// kernels.h).

#define LIRA_KERNEL_NS vec
#include "lira/common/kernels_impl.inc"
