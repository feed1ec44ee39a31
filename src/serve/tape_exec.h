// The tape executor moved to core/tape_exec.h; this alias remains only for
// the performance ledger's includes (bench/ledger/common.cpp).
#pragma once

#include "core/tape_exec.h"

namespace dg::serve {
using core::TapeExecutor;
}  // namespace dg::serve
