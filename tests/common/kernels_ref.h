// The scalar oracle: every kernel of lira/common/kernels.h, built from the
// same bodies with vectorization off (kernels_ref.cc), in kernels::ref.

#ifndef LIRA_TESTS_COMMON_KERNELS_REF_H_
#define LIRA_TESTS_COMMON_KERNELS_REF_H_

#include "lira/common/kernels.h"

namespace lira::kernels::ref {
LIRA_KERNELS_DECLARE
}  // namespace lira::kernels::ref

#endif  // LIRA_TESTS_COMMON_KERNELS_REF_H_
