// Umbrella header for the discrete-event simulation engine.
#pragma once

#include "sim/engine.hpp"    // IWYU pragma: export
#include "sim/process.hpp"   // IWYU pragma: export
#include "sim/resource.hpp"  // IWYU pragma: export
#include "sim/sync.hpp"      // IWYU pragma: export
#include "sim/task.hpp"      // IWYU pragma: export
#include "sim/time.hpp"      // IWYU pragma: export
