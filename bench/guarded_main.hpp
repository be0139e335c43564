// The one error path of every bench main: run the body, and report any
// exception — a malformed DGSCHED_* knob, an unwritable output file — as
// "<binary>: <what>" on stderr with exit status 1 instead of aborting.
#pragma once

#include <exception>
#include <iostream>
#include <string_view>

namespace dg::bench {

/// Returns `body()`, or 1 after printing "<name>: <what>" if it throws.
template <typename Body>
int guarded_main(std::string_view name, Body&& body) {
  try {
    return body();
  } catch (const std::exception& e) {
    std::cerr << name << ": " << e.what() << "\n";
    return 1;
  }
}

}  // namespace dg::bench
