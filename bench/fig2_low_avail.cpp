// Reproduces Figure 2: mean BoT turnaround vs task granularity for the five
// bag-selection policies on low-availability (~50%) grids — the
// volunteer-computing regime — four panels: Hom/Het x Low/High intensity.
#include "figure_main.hpp"

int main() {
  return dg::bench::run_figure_main(dg::exp::figure2_spec(), "fig2_low_avail");
}
