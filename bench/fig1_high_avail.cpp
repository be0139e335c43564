// Reproduces Figure 1: mean BoT turnaround vs task granularity for the five
// bag-selection policies on high-availability (~98%) grids, four panels:
// Hom/Het x Low/High workload intensity.
#include "figure_main.hpp"

int main() {
  return dg::bench::run_figure_main(dg::exp::figure1_spec(), "fig1_high_avail");
}
