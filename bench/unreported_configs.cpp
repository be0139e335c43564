// Regenerates the configurations the paper measured but did not plot
// (medium availability, medium intensity), to check the paper's statement
// that they "do not significantly differ" from the reported ones.
#include "figure_main.hpp"

int main() {
  return dg::bench::run_figure_main(dg::exp::unreported_spec(), "unreported_configs");
}
